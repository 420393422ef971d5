(* R7 fixture: ambient Random use. The directory path puts this file
   in the rule's solver-stack scope (where portfolio winner-seed replay
   demands seed-pure variation); linted under any other path the rule
   must stay silent. Expected findings: 3. *)

let roll () = Random.int 6
let jitter () = Random.float 1.0
let reseed () = Random.self_init ()

(* a justified use is fine *)
let shuffle_tag () =
  (* lint: seeded-randomness — test-only scaffolding, never in a replay *)
  Random.bits ()
