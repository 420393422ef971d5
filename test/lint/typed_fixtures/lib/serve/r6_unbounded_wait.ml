(* R6 fixture: raw sleeps and unbounded joins. The directory path puts
   this file in the rule's serving-path scope; linted under any other
   path the rule must stay silent. Expected findings: 4. *)

let nap () = Unix.sleep 1
let micro_nap () = Unix.sleepf 0.5
let pause () = Thread.delay 0.25
let reap t = Thread.join t

(* a justified wait is fine *)
let reap_bounded t =
  (* lint: unbounded-wait — the worker exits on the closed pipe below *)
  Thread.join t
