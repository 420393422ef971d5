(* Machine-speed calibration. The shared two-core hosts this benchmark
   runs on slow down and speed up by 10-30% for seconds to minutes at a
   time, so two runs of identical work can differ by that much. Each
   untraced round ends with a fixed kernel written here, independent of
   the library: a chain of dependent loads (core speed) and a stream of
   short-lived allocations (minor-heap traffic). A minor collection
   before the timed part empties the young heap, so the kernel's own
   collections promote nothing of the round's, and nothing it allocates
   survives them. Reported times are scaled by
   [reference_s / median kernel time], so they read as times on a
   machine where the kernel takes [reference_s]; the raw figures are
   printed beside them. *)

let reference_s = 0.006
let cell = [| 0 |]

let kernel () =
  let j = ref 0 and acc = ref 0 in
  for _ = 1 to 8 do
    for _ = 1 to 262_144 do
      j := Array.unsafe_get cell !j;
      acc := !acc + !j
    done;
    for i = 1 to 40_000 do
      acc := !acc + fst (Sys.opaque_identity (i, !j))
    done
  done;
  !acc

let kernel_s () =
  Gc.minor ();
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel ()));
  Unix.gettimeofday () -. t0

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* The factor times are multiplied by; 1 when no round was calibrated. *)
let speed = function [] -> 1. | xs -> reference_s /. median xs
