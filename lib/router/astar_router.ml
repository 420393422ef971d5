module Rng = Qls_graph.Rng
module Pqueue = Qls_graph.Pqueue
module Dag = Qls_circuit.Dag
module Device = Qls_arch.Device
module Mapping = Qls_layout.Mapping

type options = { lookahead_weight : float; node_budget : int; seed : int }

let default_options = { lookahead_weight = 0.5; node_budget = 10_000; seed = 0 }

(* Collision-free closed set over mapping states.

   The historical key encoded each physical index as one byte
   ([Char.chr (p land 0xff)]): on any device with more than 256 physical
   qubits, distinct mappings silently collided, pruning live states from
   the search and corrupting results. Keys are now a Zobrist hash — one
   fixed pseudo-random integer per (program qubit, physical position),
   XOR-combined over the occupied positions — verified against the stored
   mappings on hash match, so equality is exact at every device size. The
   hash is maintained incrementally across SWAPs (two XOR pairs), so a
   closed-set probe costs O(1) where the Bytes key cost O(n) plus a
   string allocation per probe. *)
module Closed = struct
  (* Open-addressed (linear probing) set of mapping states keyed by the
     Zobrist hash. Slots hold the key and the stored mapping; distinct
     mappings that share a hash (the astronomically-rare collision)
     simply occupy separate slots on the same probe chain, and every
     key match is verified against the stored mapping, so membership is
     exact. The A* probes this once per {e push} — hundreds of
     thousands of times per circuit, almost always answering "absent" —
     and open addressing answers that with a couple of adjacent array
     loads where a chained table paid a bucket allocation and a pointer
     chase. *)
  type t = {
    z : int array; (* (physical p, program q) -> z.(p * n_prog + q) *)
    n_prog : int;
    mutable keys : int array; (* Zobrist key per occupied slot *)
    mutable vals : Mapping.t option array; (* [None] = empty slot *)
    mutable mask : int; (* capacity - 1, capacity a power of two *)
    mutable count : int;
  }

  let initial_capacity = 8192

  (* The Zobrist table is a pure function of the state-space dimensions:
     every search on a device of the same shape derives the same keys, so
     searches stay replayable from their inputs alone. *)
  let create ~n_prog ~n_phys =
    let rng = Rng.create ((n_prog * 0x9e3779b9) lxor n_phys) in
    let z =
      Array.init (max 1 (n_prog * n_phys)) (fun _ ->
          Int64.to_int (Rng.bits64 rng) land max_int)
    in
    {
      z;
      n_prog;
      keys = Array.make initial_capacity 0;
      vals = Array.make initial_capacity None;
      mask = initial_capacity - 1;
      count = 0;
    }

  let slot t p q = t.z.((p * t.n_prog) + q)

  let hash t m =
    let q2p = Mapping.phys_table m in
    let h = ref 0 in
    for q = 0 to t.n_prog - 1 do
      h := !h lxor slot t q2p.(q) q
    done;
    !h

  (* Hash after exchanging the contents of positions [p] and [p'] of a
     mapping currently hashing to [h]. [a]/[b] are the program qubits on
     [p]/[p'] before the exchange ([-1] = empty slot; int sentinel, not
     an option, so the per-push path allocates nothing). *)
  let hash_after_swap t h ~p ~p' ~a ~b =
    let h = if a < 0 then h else h lxor slot t p a lxor slot t p' a in
    if b < 0 then h else h lxor slot t p' b lxor slot t p b

  let grow t =
    let old_keys = t.keys and old_vals = t.vals in
    let cap = (t.mask + 1) * 2 in
    t.keys <- Array.make cap 0;
    t.vals <- Array.make cap None;
    t.mask <- cap - 1;
    Array.iteri
      (fun i v ->
        match v with
        | None -> ()
        | Some _ ->
            let j = ref (old_keys.(i) land t.mask) in
            (* lint: cancel-poll-coverage — probe chain, bounded by table capacity (load factor <= 1/2) *)
            while Option.is_some t.vals.(!j) do
              j := (!j + 1) land t.mask
            done;
            t.keys.(!j) <- old_keys.(i);
            t.vals.(!j) <- v)
      old_vals

  let mem_hashed t h m =
    let i = ref (h land t.mask) in
    let found = ref false in
    let stop = ref false in
    (* lint: cancel-poll-coverage — probe chain, bounded by table capacity (load factor <= 1/2) *)
    while not !stop do
      match t.vals.(!i) with
      | None -> stop := true
      | Some stored ->
          if t.keys.(!i) = h && Mapping.equal stored m then begin
            found := true;
            stop := true
          end
          else i := (!i + 1) land t.mask
    done;
    !found

  (* Exactness without materialisation: [mem_swapped t h m ~p ~p']
     answers "is [swap_physical m p p'] present?" by comparing each
     key-matching slot against [m]'s table with the exchange applied on
     the fly — equality is checked on the real tables (true
     transpositions and the rare hash collision both resolve exactly),
     yet the candidate mapping is never allocated. *)
  let mem_swapped t h m ~p ~p' =
    let q2p = Mapping.phys_table m in
    let n = Array.length q2p in
    let i = ref (h land t.mask) in
    let found = ref false in
    let stop = ref false in
    (* lint: cancel-poll-coverage — probe chain, bounded by table capacity (load factor <= 1/2) *)
    while not !stop do
      match t.vals.(!i) with
      | None -> stop := true
      | Some stored ->
          if
            t.keys.(!i) = h
            && begin
                 let q2s = Mapping.phys_table stored in
                 Array.length q2s = n
                 &&
                 let rec go q =
                   q >= n
                   || (let pq = q2p.(q) in
                       let rq =
                         if pq = p then p' else if pq = p' then p else pq
                       in
                       q2s.(q) = rq)
                      && go (q + 1)
                 in
                 go 0
               end
          then begin
            found := true;
            stop := true
          end
          else i := (!i + 1) land t.mask
    done;
    !found

  (* One probe chain walk: insert at the first empty slot unless an
     equal mapping sits on the chain. The pop loop calls this once per
     expanded state. *)
  let add_hashed t h m =
    if 2 * (t.count + 1) > t.mask + 1 then grow t;
    let i = ref (h land t.mask) in
    let result = ref true in
    let stop = ref false in
    (* lint: cancel-poll-coverage — probe chain, bounded by table capacity (load factor <= 1/2) *)
    while not !stop do
      match t.vals.(!i) with
      | None ->
          t.keys.(!i) <- h;
          t.vals.(!i) <- Some m;
          t.count <- t.count + 1;
          stop := true
      | Some stored ->
          if t.keys.(!i) = h && Mapping.equal stored m then begin
            result := false;
            stop := true
          end
          else i := (!i + 1) land t.mask
    done;
    !result

  let mem t m = mem_hashed t (hash t m) m
  let add t m = add_hashed t (hash t m) m
end

(* Distance excess of a gate set under a mapping (row-threaded). *)
let excess device mapping pairs =
  List.fold_left
    (fun acc (a, b) ->
      acc + (Device.distance_row device (Mapping.phys mapping a)).(Mapping.phys mapping b) - 1)
    0 pairs

let heuristic_of ~opts ~layer_excess ~look_excess ~has_lookahead =
  let h_layer = float_of_int ((layer_excess + 1) / 2) in
  let h_look =
    if has_lookahead then opts.lookahead_weight *. float_of_int look_excess /. 2.0
    else 0.0
  in
  h_layer +. h_look

(* A* from [mapping] to a mapping making every pair in [target_pairs]
   adjacent. Returns the SWAP sequence, or [None] when the node budget is
   exhausted.

   Search states carry their layer/lookahead distance excess and Zobrist
   hash, all maintained by O(pairs touching the swapped coupler) deltas,
   so neither the heuristic nor the goal test nor the closed-set key ever
   re-walks the whole layer or mapping. Expansion order, heuristic values
   and budget accounting are exactly those of the historical
   recompute-everything search (the deltas are integer-exact), so results
   are bit-identical on every device where the old Bytes key was
   collision-free — the qmap goldens pin this. Transposition detection
   falls out of the closed-set probe at push time: a state reachable by
   several SWAP orders is inserted once and never re-expanded. *)
let astar ~opts device mapping ~target_pairs ~lookahead_pairs =
  let n_prog = Mapping.n_program mapping in
  let n_phys = Device.n_qubits device in
  let dmat = Device.distance_matrix device in
  let open_set = Pqueue.create () in
  let closed = Closed.create ~n_prog ~n_phys in
  (* Per program qubit: the target/lookahead pairs it appears in, for the
     delta updates. *)
  let tp_touch = Array.make (max 1 n_prog) [] in
  let lp_touch = Array.make (max 1 n_prog) [] in
  List.iter
    (fun ((a, b) as pr) ->
      tp_touch.(a) <- pr :: tp_touch.(a);
      tp_touch.(b) <- pr :: tp_touch.(b))
    target_pairs;
  List.iter
    (fun ((a, b) as pr) ->
      lp_touch.(a) <- pr :: lp_touch.(a);
      lp_touch.(b) <- pr :: lp_touch.(b))
    lookahead_pairs;
  let has_lookahead =
    match lookahead_pairs with [] -> false | _ :: _ -> true
  in
  (* Excess delta contributed by the pairs touching the swapped qubits
     ([q2p] is the pre-swap program→physical table, exchange (p, p')
     pending; [a]/[b] are the occupants of [p]/[p'], [-1] = empty).
     Each visited pair relocates its endpoints through the pending
     exchange — post-swap distance without materialising the swapped
     mapping — and pays four array indexes total. Pairs touching both
     swapped program qubits are visited once (skipped on the second
     pass; program qubits are non-negative, so the [-1] sentinel never
     spuriously matches). *)
  let delta touch q2p p p' a b =
    let acc = ref 0 in
    let visit (x, y) =
      let px = q2p.(x) and py = q2p.(y) in
      let rx = if px = p then p' else if px = p' then p else px in
      let ry = if py = p then p' else if py = p' then p else py in
      acc := !acc + dmat.(rx).(ry) - dmat.(px).(py)
    in
    if a >= 0 then List.iter visit touch.(a);
    if b >= 0 then
      List.iter (fun ((x, y) as pr) -> if x <> a && y <> a then visit pr) touch.(b);
    !acc
  in
  (* Expansion candidates: couplers touching a physical qubit that holds
     a target-layer qubit. The search expands thousands of nodes per
     layer, so rather than collecting, deduplicating and sorting the
     incident-edge lists per node (plus a list allocation per
     expansion), each expansion marks the target qubits' current
     positions in [pmark] and walks the canonical coupler array once.
     Ascending coupler index {e is} the canonical order, so the set and
     the order of the generated successors — and hence the search result
     — are exactly those of the historical collect-and-sort. *)
  let edges = Array.of_list (Device.edges device) in
  let pmark = Array.make n_phys false in
  let mark_targets q2p v =
    List.iter
      (fun (a, b) ->
        pmark.(q2p.(a)) <- v;
        pmark.(q2p.(b)) <- v)
      target_pairs
  in
  (* The budget counts queue insertions: each stored state holds a full
     mapping, so this also bounds peak memory. *)
  let pushed = ref 0 in
  let layer_ex0 = excess device mapping target_pairs in
  let look_ex0 = excess device mapping lookahead_pairs in
  let zob0 = Closed.hash closed mapping in
  (* Queued states carry (base mapping, pending swap): the swapped
     mapping is materialised only when a state is popped (or on the rare
     exact closed-set verification), so the dominant per-push cost — two
     O(n) array copies — is paid only for expanded states, not for every
     queue insertion. The pending swap and the swap trail are packed as
     [p * n_phys + p'] ints ([-1] = no pending swap), and the three small
     non-negative scalars (g, layer excess, lookahead excess) share one
     int at 21 bits each — g is capped by the node budget and the
     excesses by the layer's total distance, all far below [2^21] — so a
     push allocates exactly one 4-word state tuple and one trail cons. *)
  let pack_scalars g lex kex = g lor (lex lsl 21) lor (kex lsl 42) in
  let mask21 = (1 lsl 21) - 1 in
  Pqueue.push open_set
    (heuristic_of ~opts ~layer_excess:layer_ex0 ~look_excess:look_ex0
       ~has_lookahead)
    (mapping, -1, pack_scalars 0 layer_ex0 look_ex0, [], zob0);
  let result = ref None in
  let budget_hit = ref false in
  let expanded = ref 0 in
  while Option.is_none !result && (not !budget_hit) && not (Pqueue.is_empty open_set) do
    (* One search layer can expand far longer than a router round, so the
       per-round checkpoint alone gives poor cancellation latency here;
       poll on a stride that keeps the check off the per-pop hot cost. *)
    incr expanded;
    if !expanded land 1023 = 0 then Qls_cancel.poll ();
    match Pqueue.pop open_set with
    | None -> ()
    | Some (_, (base, pend, scalars, swaps_rev, zob)) ->
        let g = scalars land mask21 in
        let layer_ex = (scalars lsr 21) land mask21 in
        let look_ex = (scalars lsr 42) land mask21 in
        let m =
          if pend < 0 then base
          else Mapping.swap_physical base (pend / n_phys) (pend mod n_phys)
        in
        if Closed.add_hashed closed zob m then begin
          if layer_ex = 0 then
            result :=
              Some (List.rev_map (fun c -> (c / n_phys, c mod n_phys)) swaps_rev)
          else begin
            let q2p = Mapping.phys_table m in
            mark_targets q2p true;
            for e = 0 to Array.length edges - 1 do
              let p, p' = edges.(e) in
              if (pmark.(p) || pmark.(p')) && not !budget_hit then begin
                let code = (p * n_phys) + p' in
                (* Undoing the pending swap recreates this state's parent,
                   which was added to the closed set when it was expanded:
                   that probe always answers "present", so it is skipped
                   outright — same outcome (no push, no budget charge),
                   none of the bucket-walk cost, every pop. *)
                let a = Mapping.occupant m p and b = Mapping.occupant m p' in
                let zob' = Closed.hash_after_swap closed zob ~p ~p' ~a ~b in
                if
                  code <> pend && not (Closed.mem_swapped closed zob' m ~p ~p')
                then begin
                  incr pushed;
                  if !pushed > opts.node_budget then budget_hit := true
                  else begin
                    let layer_ex' = layer_ex + delta tp_touch q2p p p' a b in
                    let look_ex' =
                      if has_lookahead then look_ex + delta lp_touch q2p p p' a b
                      else 0
                    in
                    let g' = g + 1 in
                    let f =
                      float_of_int g'
                      +. heuristic_of ~opts ~layer_excess:layer_ex'
                           ~look_excess:look_ex' ~has_lookahead
                    in
                    Pqueue.push open_set f
                      ( m,
                        code,
                        pack_scalars g' layer_ex' look_ex',
                        code :: swaps_rev,
                        zob' )
                  end
                end
              end
            done;
            mark_targets q2p false
          end
        end
  done;
  !result

(* Budget fallback: route the layer's gates one at a time along shortest
   paths. Total on validated (connected) devices: a BFS path always
   exists; on anything else unroutable gates are skipped rather than
   crashed on ({!Route_state.create} rejects such devices up front). *)
let fallback_swaps device mapping target_pairs =
  let m = ref mapping in
  let swaps = ref [] in
  List.iter
    (fun (a, b) ->
      let pa = Mapping.phys !m a and pb = Mapping.phys !m b in
      if (Device.distance_row device pa).(pb) > 1 then
        match Qls_graph.Bfs.path (Device.graph device) pa pb with
        | None | Some [] | Some [ _ ] -> ()
        | Some path ->
            let rec go = function
              | p :: p' :: (_ :: _ as rest) ->
                  swaps := (p, p') :: !swaps;
                  m := Mapping.swap_physical !m p p';
                  go (p' :: rest)
              | _ -> ()
            in
            go path)
    target_pairs;
  List.rev !swaps

let obs_rounds = Qls_obs.counter "router.rounds"
let obs_gates = Qls_obs.counter "router.gates"

let route ?(options = default_options) ?initial device circuit =
  let opts = options in
  let start =
    match initial with
    | Some m -> m
    | None -> Placement.identity device circuit
  in
  let st = Route_state.create ~device ~source:circuit ~initial:start in
  let traced = Qls_obs.enabled () in
  let pass_sp =
    if traced then Qls_obs.start ~site:"router" "astar.route" else Qls_obs.none
  in
  let rounds = ref 0 in
  ignore (Route_state.advance st);
  while not (Route_state.finished st) do
    incr rounds;
    (* Deadline/heartbeat checkpoint: one per routed layer. *)
    Qls_cancel.poll ();
    let layer_sp =
      if traced then Qls_obs.start ~site:"router" "astar.layer"
      else Qls_obs.none
    in
    let dag = Route_state.dag st in
    let layers = Route_state.remaining_layers st ~max_layers:2 in
    let target, lookahead =
      match layers with
      | [] -> ([], [])
      | [ l0 ] -> (l0, [])
      | l0 :: l1 :: _ -> (l0, l1)
    in
    let target_pairs = List.map (Dag.pair dag) target in
    let lookahead_pairs = List.map (Dag.pair dag) lookahead in
    let mapping = Route_state.mapping st in
    let swaps =
      match astar ~opts device mapping ~target_pairs ~lookahead_pairs with
      | Some swaps -> swaps
      | None -> fallback_swaps device mapping target_pairs
    in
    List.iter (fun (p, p') -> Route_state.apply_swap st p p') swaps;
    let emitted = Route_state.advance st in
    if traced then
      Qls_obs.stop layer_sp
        ~attrs:
          [
            ("emitted", Qls_obs.Int emitted);
            ("swaps", Qls_obs.Int (List.length swaps));
          ];
    (* The A* goal guarantees the whole layer became executable; the
       fallback guarantees at least one gate did (devices that could
       starve it are rejected by {!Route_state.create}). *)
    if emitted = 0 then
      failwith "Astar_router: no progress after layer search (bug)"
  done;
  Qls_obs.add obs_rounds !rounds;
  Qls_obs.add obs_gates (Route_state.done_count st);
  if traced then
    Qls_obs.stop pass_sp
      ~attrs:
        [
          ("rounds", Qls_obs.Int !rounds);
          ("swaps", Qls_obs.Int (Route_state.swap_count st));
        ];
  Route_state.finish st

let router ?(options = default_options) () =
  {
    Router.name = "qmap";
    route = (fun ?initial device circuit -> route ~options ?initial device circuit);
  }
