(* R3 fixture: float equality and polymorphic min/max/compare
   instantiated at float. Expected findings: 7. *)

let bad_eq_arith a b c = a = (b *. c)

let bad_eq_const x = x = 0.0

let bad_min x y = min x (y +. 1.0)

let bad_max z = max 0.0 z

let bad_compare x = compare x 1.5

let bad_conv n m = float_of_int n = m

(* Only the types say these are floats. *)
let bad_typed_eq (prio : float array) i j = prio.(i) = prio.(j)

(* Fine: ordering is well-defined on non-NaN floats, and the Float
   module is NaN-aware. *)
let ok_order x y = x < y
let ok_float_eq x y = Float.equal x y
let ok_float_cmp x y = Float.compare x y
let ok_eps x y = Float.abs (x -. y) < 1e-9
let ok_int_min (a : int) b = min a b
