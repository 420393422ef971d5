(* domain-escape fixture: a lazy value built at module initialisation
   under lib/ is forced by whichever domain gets there first, and a
   second domain forcing it meanwhile raises CamlinternalLazy.Undefined.
   Expected findings: 1. *)

(* bad: a shared lazy table *)
let table = lazy (Array.init 256 Fun.id)

(* ok: built eagerly; the Qls_obs registry is mutex-guarded *)
let hits = Qls_obs.counter "fixture.hits"

(* ok: a fresh lazy per call is not shared *)
let per_call () = lazy (Array.make 4 0)

(* suppressed *)
(* lint: domain-escape — fixture: forced during set-up, before any domain starts *)
let forced_early = lazy (Array.make 4 0)
