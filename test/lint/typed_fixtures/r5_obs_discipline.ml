(* R5 fixture: Qls_obs usage that breaks the allocation-free-when-
   disabled contract. Expected findings: 4. *)

let bad_enabled_in_for () =
  for _i = 0 to 9 do
    if Qls_obs.enabled () then () else ()
  done

let bad_enabled_in_while () =
  let n = ref 0 in
  while !n < 3 do
    if Qls_obs.enabled () then incr n else incr n
  done

let bad_counter_in_iter xs =
  List.iter (fun _x -> ignore (Qls_obs.counter "hits")) xs

let bad_eager_attrs sp emitted =
  Qls_obs.stop sp ~attrs:[ ("emitted", Qls_obs.Int emitted) ]

(* Fine: the established idiom — one enabled read per pass, attrs built
   only under the guard. *)
let ok_hoisted sp xs =
  let traced = Qls_obs.enabled () in
  List.iter (fun _x -> ()) xs;
  if traced then Qls_obs.stop sp ~attrs:[ ("n", Qls_obs.Int 1) ]

(* Fine: a counter looked up once, at module initialisation. *)
let hits = Qls_obs.counter "hits"
let ok_counter xs = List.iter (fun _x -> Qls_obs.incr hits) xs
