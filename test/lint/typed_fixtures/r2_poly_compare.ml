(* R2 fixture: polymorphic compare and structural =/<>.
   Expected findings: 5. *)

let sort_ints xs = List.sort compare xs

let sort_array a = Array.sort compare a

module PS = Set.Make (struct
  type t = int * int

  let compare = compare
end)

let check_empty xs = if xs = [] then 0 else List.length xs

let check_opt x = x <> None

(* Fine: monomorphic spellings. *)
let ok_int xs = List.sort Int.compare xs
let ok_str a b = String.compare a b
let ok_imm x = x = 3
let ok_vars a b = a = b

(* Fine: at an immediate type polymorphic compare is an integer
   comparison. *)
let ok_imm_compare (xs : int list) = List.sort compare xs
