(* QUBIKOS end-to-end benchmark.

   One round of every workload runs three phases over fresh inputs
   derived from (--seed, round):

   - campaign: Evaluation.run_campaign (generate -> certify -> route ->
     verify) with the four paper tools over a panel of devices;
   - exact:    Certificate.check_exact (structural certificate plus the
     SAT refutation of n-1 SWAPs) on small saturation-capped instances;
   - serve:    evaluate requests to a spawned `qubikos serve` daemon, each
     naming a distinct instance (a cold miss) and repeated once by the
     same client after the answer arrives (a deterministic cache hit).

   A workload weights the phases: its own phase runs heavily, the others
   lightly, so every metric exists on every workload. With --trace 0 the
   run reports the end-to-end metrics; with --trace 1 every phase is
   also re-run layer by layer from outside, through each layer's public
   function, and the run reports per-layer metrics (per traced round).

   No operation fails on these workloads, so a failed one (a campaign
   task, a SAT budget, a serve request) is counted in [failed] and also
   fails the run.

   The last line of standard output is one JSON object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}. *)

open Qubikos
module Topologies = Qls_arch.Topologies
module Circuit = Qls_circuit.Circuit
module Transpiled = Qls_layout.Transpiled
module Verifier = Qls_layout.Verifier
module Registry = Qls_router.Registry
module Router = Qls_router.Router
module Olsq = Qls_router.Olsq
module Route_state = Qls_router.Route_state
module Task = Qls_harness.Task

let tools = [ "sabre"; "mlqls"; "qmap"; "tket" ]
let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type serve_spec = {
  arch : string;
  swaps : int;
  gates : int;
  tool : string;
  trials : int;
}

type phase = Campaign | Exact | Serve

type mix = {
  primary : phase;
  campaign : (string * int) list;  (** device, gate budget: one campaign each *)
  campaign_swaps : int list;
  campaign_circuits : int;  (** circuits per (device, swap count) point *)
  sabre_trials : int;
  exact : (string * int) list;  (** device, designed SWAPs: one instance each *)
  exact_gates : int;
  serve : serve_spec list;  (** one cold + one hit request each *)
}

let aspen_light = [ ("aspen4", 30) ]
let ev arch swaps gates tool trials = { arch; swaps; gates; tool; trials }

let workloads =
  [
    ( "fig4-panel",
      {
        primary = Campaign;
        campaign = [ ("aspen4", 60); ("sycamore", 150); ("rochester", 150); ("eagle", 150) ];
        campaign_swaps = [ 3 ];
        campaign_circuits = 1;
        sabre_trials = 5;
        exact = [ ("grid3x3", 2); ("ring6", 2) ];
        exact_gates = 30;
        serve =
          [
            ev "aspen4" 5 300 "tket" 5; ev "aspen4" 5 300 "mlqls" 5;
            ev "aspen4" 5 300 "tket" 5; ev "aspen4" 5 300 "mlqls" 5;
          ];
      } );
    ( "exact-certify",
      {
        primary = Exact;
        campaign = aspen_light;
        campaign_swaps = [ 2; 3 ];
        campaign_circuits = 6;
        sabre_trials = 5;
        exact =
          List.concat_map
            (fun d -> List.map (fun n -> (d, n)) [ 1; 2; 3; 4 ])
            [ "grid3x3"; "line6"; "ring6"; "aspen4" ];
        exact_gates = 30;
        serve = [ ev "aspen4" 5 300 "tket" 5; ev "aspen4" 5 300 "mlqls" 5 ];
      } );
    ( "serve-evaluate",
      {
        primary = Serve;
        campaign = aspen_light;
        campaign_swaps = [ 2; 3 ];
        campaign_circuits = 6;
        sabre_trials = 5;
        exact = [ ("grid3x3", 2) ];
        exact_gates = 30;
        serve =
          List.map (fun t -> ev "aspen4" 5 300 t 5) tools
          @ List.map (fun t -> ev "sycamore" 5 1500 t 5) [ "mlqls"; "tket"; "mlqls"; "tket"; "tket" ];
      } );
  ]

(* Input seeds: every (round, slot) names its own instance. *)
let campaign_seed ~seed ~round = (seed * 100_000_000) + (round * 100_000)
let instance_seed ~seed ~round k = (seed * 1_000_000) + (round * 100) + k

(* ------------------------------------------------------------------ *)
(* Accounting                                                          *)
(* ------------------------------------------------------------------ *)

type stats = {
  mutable attempted : int;
  mutable failed : int;
  mutable correct : bool;
  mutable primary_ops : int;
  mutable primary_s : float;
  mutable rates : float list;  (** per-round primary ops per second *)
  mutable lat : float list;  (** primary op latencies, s *)
  mutable hits : float list;  (** serve cache-hit latencies, s *)
  mutable pairs : int;  (** serve requests sent, each cold then hit *)
  gap : (string, float * int) Hashtbl.t;  (** tool -> ratio sum, count; first rounds only *)
  layer : (string, float) Hashtbl.t;  (** traced per-layer totals *)
  mutable cold_overhead : float list;  (** traced, ms *)
  mutable busy : float;  (** traced: time inside measured layer calls *)
  mutable measure : float;  (** traced: time spent measuring (GC sampling) *)
}

let fresh_stats () =
  {
    attempted = 0;
    failed = 0;
    correct = true;
    primary_ops = 0;
    primary_s = 0.;
    rates = [];
    lat = [];
    hits = [];
    pairs = 0;
    gap = Hashtbl.create 8;
    layer = Hashtbl.create 64;
    cold_overhead = [];
    busy = 0.;
    measure = 0.;
  }

let wrong st fmt =
  Printf.ksprintf
    (fun msg ->
      if st.correct then prerr_endline ("qbench: CHECK FAILED: " ^ msg);
      st.correct <- false)
    fmt

(* An operation that did not complete; none is expected, so it is also
   a check failure. *)
let failed st n fmt =
  st.failed <- st.failed + n;
  wrong st fmt

let add st key v =
  Hashtbl.replace st.layer key (v +. Option.value ~default:0. (Hashtbl.find_opt st.layer key))

(* Time one layer call; in traced runs its time counts as busy. *)
let timed st key f =
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  add st key dt;
  st.busy <- st.busy +. dt;
  r

let add_gap st tool ratio =
  let s, n = Option.value ~default:(0., 0) (Hashtbl.find_opt st.gap tool) in
  Hashtbl.replace st.gap tool (s +. ratio, n + 1)

let replay st ~device ~circuit t =
  timed st "check.replay_s" (fun () -> Replay.check ~device ~circuit t)

(* Words allocated across all domains: a forced minor collection samples
   every live domain, and domains that have already joined (SABRE's
   trial workers) were folded into the totals when they ended. *)
let words st =
  let t0 = now () in
  Gc.minor ();
  let w = (Gc.quick_stat ()).Gc.minor_words in
  st.measure <- st.measure +. (now () -. t0);
  w

let c_rounds = Qls_obs.counter "router.rounds"
let c_conflicts = Qls_obs.counter "sat.conflicts"
let c_learned = Qls_obs.counter "sat.learned"
let c_restarts = Qls_obs.counter "sat.restarts"
let scans () = (Route_state.Debug.counters ()).Route_state.Debug.swap_candidate_scans

(* Route through the registry from outside, attributing time, rounds,
   candidate scans and allocation to the tool; then verify and replay. *)
let traced_route st ~tool ~router ~device ~circuit =
  let r0 = Qls_obs.counter_value c_rounds and s0 = scans () in
  let w0 = words st in
  let t = timed st (tool ^ ".route_s") (fun () -> router.Router.route device circuit) in
  let w1 = words st in
  add st (tool ^ ".rounds") (float_of_int (Qls_obs.counter_value c_rounds - r0));
  add st (tool ^ ".candidate_scans") (float_of_int (scans () - s0));
  add st (tool ^ ".alloc_words") (w1 -. w0);
  add st (tool ^ ".gates") (float_of_int (Circuit.two_qubit_count circuit));
  (match timed st "verifier.s" (fun () -> Verifier.check t) with
  | Ok _ -> ()
  | Error _ -> wrong st "%s: Verifier rejected its own result" tool);
  (match replay st ~device ~circuit t with
  | Ok n when n = Transpiled.swap_count t -> ()
  | Ok n -> wrong st "%s: replay counted %d SWAPs, result claims %d" tool n (Transpiled.swap_count t)
  | Error e -> wrong st "%s: replay rejected the routed result: %s" tool e);
  add st (tool ^ ".swaps") (float_of_int (Transpiled.swap_count t));
  Transpiled.swap_count t

let check_designed st (b : Benchmark.t) =
  match replay st ~device:b.device ~circuit:b.circuit b.designed with
  | Ok n when n = b.optimal_swaps -> ()
  | Ok n -> wrong st "designed schedule replays with %d SWAPs, optimum %d" n b.optimal_swaps
  | Error e -> wrong st "designed schedule rejected by replay: %s" e

let sat_counters =
  [ ("sat.conflicts", c_conflicts); ("sat.learned", c_learned); ("sat.restarts", c_restarts) ]

(* The layers a campaign task runs; what the campaign spends beyond
   them is its own overhead. *)
let campaign_layers =
  [ "generator.s"; "certificate.s"; "verifier.s" ] @ List.map (fun t -> t ^ ".route_s") tools

let layer_sum st keys =
  List.fold_left (fun acc k -> acc +. Option.value ~default:0. (Hashtbl.find_opt st.layer k)) 0. keys

(* Generate and structurally certify one instance, layer by layer. *)
let traced_instance st ~what config device =
  let b = timed st "generator.s" (fun () -> Generator.generate ~config device) in
  add st "generator.gates" (float_of_int (Benchmark.two_qubit_count b));
  if Result.is_error (timed st "certificate.s" (fun () -> Certificate.check b)) then
    wrong st "certificate rejected a generated %s instance" what;
  check_designed st b;
  b

(* ------------------------------------------------------------------ *)
(* Phases                                                              *)
(* ------------------------------------------------------------------ *)

let device_of devices name = Hashtbl.find devices name

(* The gaps and the peak resident set are taken over the first
   [fixed_rounds] rounds, which every untraced run completes, so they
   repeat exactly for a seed whatever the host's speed. *)
let fixed_rounds = 24

let campaign_phase st ~traced ~primary ~seed ~round mix devices =
  List.iter
    (fun (dname, gate_budget) ->
      let device = device_of devices dname in
      let config =
        {
          Evaluation.swap_counts = mix.campaign_swaps;
          circuits_per_point = mix.campaign_circuits;
          gate_budget;
          single_qubit_ratio = 0.;
          sabre_trials = mix.sabre_trials;
          seed = campaign_seed ~seed ~round;
        }
      in
      let t0 = now () in
      let rows = Evaluation.run_campaign ~config device in
      let wall = now () -. t0 in
      let swaps_of = Hashtbl.create 16 in
      List.iter
        (fun (row : Qls_harness.Campaign.row) ->
          let task = row.task in
          st.attempted <- st.attempted + 1;
          match row.status with
          | Task.Done o ->
              Hashtbl.replace swaps_of (Task.id task) o.swaps;
              if o.swaps < task.n_swaps then
                wrong st "%s on %s: %d SWAPs, below the designed optimum %d" task.tool dname o.swaps
                  task.n_swaps;
              if round < fixed_rounds then
                add_gap st task.tool (float_of_int o.swaps /. float_of_int task.n_swaps)
          | Task.Degraded _ | Task.Failed _ ->
              failed st 1 "%s on %s: campaign task did not complete" task.tool dname)
        rows;
      if primary then begin
        st.primary_ops <- st.primary_ops + List.length rows;
        st.primary_s <- st.primary_s +. wall
      end;
      if traced then begin
        add st "campaign.s" wall;
        st.busy <- st.busy +. wall;
        (* The same tasks again, one layer at a time. *)
        let before = layer_sum st campaign_layers in
        let instances = Hashtbl.create 8 in
        List.iter
          (fun (task : Task.t) ->
            let key = (task.n_swaps, task.circuit) in
            let bench =
              match Hashtbl.find_opt instances key with
              | Some b -> b
              | None ->
                  let gen =
                    {
                      Generator.default_config with
                      n_swaps = task.n_swaps;
                      gate_budget = task.gate_budget;
                      single_qubit_ratio = task.single_qubit_ratio;
                      seed = Task.circuit_seed task;
                    }
                  in
                  let b = traced_instance st ~what:dname gen device in
                  Hashtbl.replace instances key b;
                  b
            in
            let router =
              Option.get
                (Registry.by_name ~sabre_trials:task.sabre_trials ~seed:(Task.rng_seed task)
                   task.tool)
            in
            let swaps = traced_route st ~tool:task.tool ~router ~device ~circuit:bench.circuit in
            match Hashtbl.find_opt swaps_of (Task.id task) with
            | Some s when s <> swaps ->
                wrong st "%s on %s: campaign reported %d SWAPs, direct route %d" task.tool dname s
                  swaps
            | _ -> ())
          (Evaluation.campaign_tasks ~config device);
        add st "campaign.overhead_s" (wall -. (layer_sum st campaign_layers -. before))
      end)
    mix.campaign

let exact_phase st ~traced ~primary ~seed ~round mix devices =
  List.iteri
    (fun k (dname, n) ->
      let device = device_of devices dname in
      let config =
        {
          Generator.default_config with
          n_swaps = n;
          gate_budget = mix.exact_gates;
          saturation_cap = 1;
          seed = instance_seed ~seed ~round k;
        }
      in
      st.attempted <- st.attempted + 1;
      let gen () = Generator.generate ~config device in
      let b = if traced then timed st "generator.s" gen else gen () in
      if traced then add st "generator.gates" (float_of_int (Benchmark.two_qubit_count b));
      check_designed st b;
      if not traced then begin
        let t0 = now () in
        let r = Certificate.check_exact b in
        let dt = now () -. t0 in
        match r with
        | { certified = true; exact_agrees = Some true; _ } ->
            if primary then begin
              st.lat <- dt :: st.lat;
              st.primary_ops <- st.primary_ops + 1;
              st.primary_s <- st.primary_s +. dt
            end
        | { exact_agrees = None; _ } -> failed st 1 "%s, %d SWAPs: check_exact gave no verdict" dname n
        | _ -> wrong st "%s, %d SWAPs: optimum not certified by check_exact" dname n
      end
      else begin
        if Result.is_error (timed st "certificate.s" (fun () -> Certificate.check b)) then
          wrong st "%s, %d SWAPs: structural certificate failed" dname n;
        let sat0 = List.map (fun (_, c) -> Qls_obs.counter_value c) sat_counters in
        let refute () = Olsq.check ~swaps:(n - 1) device b.circuit in
        (match timed st "olsq.refute_s" refute with
        | Olsq.Infeasible -> ()
        | Olsq.Unknown -> failed st 1 "%s: SAT gave no verdict at bound %d" dname (n - 1)
        | Olsq.Feasible _ -> wrong st "%s: SAT found %d SWAPs, below the designed %d" dname (n - 1) n);
        (match timed st "olsq.witness_s" (fun () -> Olsq.check ~swaps:n device b.circuit) with
        | Olsq.Feasible w -> (
            match replay st ~device ~circuit:b.circuit w with
            | Ok s when s = n -> ()
            | Ok s -> wrong st "%s: SAT witness at bound %d replays with %d SWAPs" dname n s
            | Error e -> wrong st "%s: SAT witness rejected by replay: %s" dname e)
        | Olsq.Unknown -> failed st 1 "%s: SAT gave no verdict at bound %d" dname n
        | Olsq.Infeasible -> wrong st "%s: SAT refuted the designed bound %d" dname n);
        List.iter2
          (fun (key, c) v0 -> add st key (float_of_int (Qls_obs.counter_value c - v0)))
          sat_counters sat0
      end)
    mix.exact

let evaluate_payload (s : serve_spec) ~seed =
  Printf.sprintf
    {|{"verb":"evaluate","arch":"%s","swaps":%d,"gates":%d,"seed":%d,"tool":"%s","trials":%d}|}
    s.arch s.swaps s.gates seed s.tool s.trials

(* An answered evaluate request must be ok, at or above the designed
   optimum, and carry ratio = swaps / optimal. *)
let check_answer st (s : serve_spec) answer =
  match
    ( Daemon.field answer "ok",
      Daemon.int_field answer "swaps",
      Daemon.int_field answer "optimal",
      Daemon.field answer "ratio" )
  with
  | Some "true", Some swaps, Some optimal, Some ratio ->
      if optimal <> s.swaps then wrong st "serve: optimal %d, designed %d" optimal s.swaps;
      if swaps < optimal then wrong st "serve %s: %d SWAPs, below the optimum %d" s.tool swaps optimal;
      let expect = Printf.sprintf "%.4f" (float_of_int swaps /. float_of_int optimal) in
      if ratio <> expect then wrong st "serve: ratio %s, swaps/optimal is %s" ratio expect;
      Some swaps
  | _ ->
      failed st 2 "serve request failed: %s" answer;
      None

let serve_phase st ~traced ~primary ~seed ~round mix devices conn =
  List.iteri
    (fun k (s : serve_spec) ->
      let gen_seed = instance_seed ~seed ~round k in
      let payload = evaluate_payload s ~seed:gen_seed in
      st.attempted <- st.attempted + 2;
      let t0 = now () in
      let cold = Daemon.request conn payload in
      let t1 = now () in
      let hot = Daemon.request conn payload in
      let t2 = now () in
      st.pairs <- st.pairs + 1;
      if traced then begin
        add st "serve.request_s" (t2 -. t0);
        st.busy <- st.busy +. (t2 -. t0)
      end;
      match check_answer st s cold with
      | None -> ()
      | Some swaps ->
          if hot <> cold then wrong st "serve: cache hit differs from its cold answer";
          if primary then begin
            st.lat <- (t1 -. t0) :: st.lat;
            st.primary_ops <- st.primary_ops + 2;
            st.primary_s <- st.primary_s +. (t2 -. t0)
          end;
          st.hits <- (t2 -. t1) :: st.hits;
          if traced then begin
            (* The daemon's work, replayed offline: generate + certify,
               then the same registry route. *)
            let device = device_of devices s.arch in
            let gen =
              { Generator.default_config with n_swaps = s.swaps; gate_budget = s.gates; seed = gen_seed }
            in
            let before = layer_sum st [ "generator.s"; "certificate.s" ] in
            let b = traced_instance st ~what:s.arch gen device in
            let prep = layer_sum st [ "generator.s"; "certificate.s" ] -. before in
            let router = Option.get (Registry.by_name ~sabre_trials:s.trials s.tool) in
            let offline = traced_route st ~tool:s.tool ~router ~device ~circuit:b.circuit in
            if offline <> swaps then
              wrong st "serve %s: daemon answered %d SWAPs, offline route %d" s.tool swaps offline;
            let routed = Option.value ~default:0. (Daemon.float_field cold "seconds") in
            st.cold_overhead <- ((t1 -. t0 -. routed -. prep) *. 1000.) :: st.cold_overhead
          end)
    mix.serve

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

let daemon_args = [ "--jobs"; "1"; "--cache-instances"; "16"; "--cache-routes"; "64" ]

(* One small route per serve device: loads the device cache and forces
   the daemon's SABRE counters inline. Costs one instance miss and one
   route miss each, which the designed cache split accounts for. *)
let warmup_payload arch =
  Printf.sprintf {|{"verb":"route","arch":"%s","swaps":1,"gates":30,"tool":"sabre","trials":1}|} arch

let serve_archs mix = List.sort_uniq String.compare (List.map (fun s -> s.arch) mix.serve)

(* Build every device the mix touches, start the daemon and warm it up
   with one small route per serve device. *)
let setup ~cli ~tag mix =
  let devices = Hashtbl.create 8 in
  let names =
    List.map fst mix.campaign @ List.map fst mix.exact @ serve_archs mix
    |> List.sort_uniq String.compare
  in
  List.iter
    (fun n ->
      match Topologies.by_name n with
      | Some d -> Hashtbl.replace devices n d
      | None -> failwith ("unknown device " ^ n))
    names;
  (* SABRE's first parallel route in a process can race on a lazily
     created counter (see README); one inline route (trials = 1) forces
     it first, here and in the daemon. *)
  let warm = Hashtbl.find devices (List.hd names) in
  let tiny = Generator.generate warm in
  ignore
    (Router.run_verified
       (Option.get (Registry.by_name ~sabre_trials:1 "sabre"))
       warm tiny.Benchmark.circuit);
  let daemon, conn = Daemon.start ~cli ~tag daemon_args in
  List.iter
    (fun arch ->
      let answer = Daemon.request conn (warmup_payload arch) in
      if Daemon.field answer "ok" <> Some "true" then
        failwith ("daemon warm-up failed: " ^ answer))
    (serve_archs mix);
  (devices, daemon, conn)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let quantile xs q =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

(* Times are multiplied by [speed] (see Calibrate), rates divided. *)
let end_to_end st ~speed ~setup_s ~peak_rss =
  [
    m "setup_s" "s" (speed *. setup_s);
    m "ops_per_s" "1/s" (quantile st.rates 0.5 /. speed);
    m "op_p50_ms" "ms" (speed *. 1000. *. quantile st.lat 0.5);
    m "op_p90_ms" "ms" (speed *. 1000. *. quantile st.lat 0.9);
    m "peak_rss_mb" "MB" peak_rss;
  ]
  @ List.map
      (fun tool ->
        let s, n = Option.value ~default:(nan, 0) (Hashtbl.find_opt st.gap tool) in
        m ("gap_" ^ tool) "ratio" (s /. float_of_int n))
      tools

let per_layer st ~rounds ~wall ~cache =
  let get k = Option.value ~default:0. (Hashtbl.find_opt st.layer k) in
  let r = float_of_int rounds in
  let per_round unit k = m k unit (get k /. r) in
  let remainder = wall -. st.busy -. st.measure in
  [
    per_round "s" "generator.s";
    per_round "count" "generator.gates";
    per_round "s" "certificate.s";
    per_round "s" "olsq.refute_s";
    per_round "s" "olsq.witness_s";
    per_round "count" "sat.conflicts";
    per_round "count" "sat.learned";
    per_round "count" "sat.restarts";
  ]
  @ List.concat_map
      (fun t ->
        [
          per_round "s" (t ^ ".route_s");
          per_round "count" (t ^ ".rounds");
          per_round "count" (t ^ ".candidate_scans");
          m (t ^ ".alloc_words_per_gate") "words/gate" (get (t ^ ".alloc_words") /. get (t ^ ".gates"));
          per_round "count" (t ^ ".swaps");
        ])
      tools
  @ [
      per_round "s" "verifier.s";
      per_round "s" "campaign.s";
      per_round "s" "campaign.overhead_s";
      per_round "s" "serve.request_s";
      m "serve.hit_p50_ms" "ms" (1000. *. quantile st.hits 0.5);
      m "server.cold_overhead_ms" "ms" (quantile st.cold_overhead 0.5);
      per_round "s" "check.replay_s";
    ]
  @ List.map (fun (k, v) -> m k "count" (float_of_int v)) cache
  @ [
      m "trace.wall_s" "s" (wall /. r);
      m "trace.overhead_share" "ratio" (st.measure /. wall);
      m "trace.remainder_share" "ratio" (remainder /. wall);
    ]

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let median xs = quantile xs 0.5

(* A metric without samples prints as null, and the run fails (see
   [run]), rather than reading as a best-possible 0. *)
let json_of ~st metrics =
  let body =
    List.map
      (fun x ->
        let v = if Float.is_finite x.value then Printf.sprintf "%.17g" x.value else "null" in
        Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} x.name v x.unit)
      metrics
  in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} st.correct
    st.attempted st.failed (String.concat ", " body)

let cache_fields = [ "route_hits"; "route_misses"; "instance_hits"; "instance_misses" ]

let run ~cli ~workload ~seed ~seconds ~traced =
  let mix =
    match List.assoc_opt workload workloads with
    | Some mix -> mix
    | None ->
        Printf.eprintf "qbench: unknown workload %S (known: %s)\n" workload
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  (* Set up nine times and keep the last; report the median. *)
  let times = ref [] and kept = ref None in
  for i = 1 to 9 do
    Option.iter (fun (_, d, c) -> Daemon.close c; Daemon.stop d) !kept;
    let t0 = now () in
    kept := Some (setup ~cli ~tag:(string_of_int i) mix);
    times := (now () -. t0) :: !times
  done;
  let devices, daemon, conn = Option.get !kept in
  (* Whatever happens from here on, the daemon does not outlive us. *)
  at_exit (fun () -> Daemon.stop daemon);
  (* The process doing the heavy work: the daemon on serve-evaluate. *)
  let rss_pid = if mix.primary = Serve then string_of_int daemon.Daemon.pid else "self" in
  let st = fresh_stats () in
  let t0 = now () in
  let round = ref 0 and kernel = ref [] and peak_rss = ref nan in
  while (!round < fixed_rounds && not traced) || now () -. t0 < seconds do
    let seed_round = !round in
    let p = mix.primary in
    let ops0 = st.primary_ops and busy0 = st.primary_s in
    campaign_phase st ~traced ~primary:(p = Campaign) ~seed ~round:seed_round mix devices;
    exact_phase st ~traced ~primary:(p = Exact) ~seed ~round:seed_round mix devices;
    serve_phase st ~traced ~primary:(p = Serve) ~seed ~round:seed_round mix devices conn;
    let busy = st.primary_s -. busy0 in
    if busy > 0. then st.rates <- (float_of_int (st.primary_ops - ops0) /. busy) :: st.rates;
    (* A campaign op is one pass over the whole panel. *)
    if p = Campaign then st.lat <- busy :: st.lat;
    if not traced then kernel := Calibrate.kernel_s () :: !kernel;
    incr round;
    if !round = fixed_rounds then peak_rss := Daemon.peak_rss_mb rss_pid
  done;
  let wall = now () -. t0 in
  let stats = Daemon.request conn {|{"verb":"stats"}|} in
  let cache = List.map (fun f -> (f, Option.value ~default:(-1) (Daemon.int_field stats f))) cache_fields in
  let warmups = List.length (serve_archs mix) in
  let designed =
    [
      ("route_hits", st.pairs);
      ("route_misses", st.pairs + warmups);
      ("instance_hits", st.pairs);
      ("instance_misses", st.pairs + warmups);
    ]
  in
  List.iter2
    (fun (f, got) (_, want) ->
      if got <> want then wrong st "cache %s: daemon counted %d, designed %d" f got want)
    cache designed;
  Daemon.close conn;
  Daemon.stop daemon;
  Printf.printf "qbench: workload %s, seed %d, %d rounds in %.2f s%s\n" workload seed !round wall
    (if traced then " (traced)" else "");
  let metrics =
    if traced then
      per_layer st ~rounds:!round ~wall
        ~cache:
          (List.map2
             (fun (_, v) name -> (name, v))
             cache
             [ "cache.routes_hits"; "cache.routes_misses"; "cache.instances_hits"; "cache.instances_misses" ])
    else begin
      let speed = Calibrate.speed !kernel in
      Printf.printf "qbench: calibration kernel median %.3f ms, speed factor %.4f; raw:\n"
        (1000. *. Calibrate.reference_s /. speed) speed;
      List.iter
        (fun x -> Printf.printf "  %-32s %14.6f %s\n" x.name x.value x.unit)
        (end_to_end st ~speed:1. ~setup_s:(median !times) ~peak_rss:!peak_rss);
      print_endline "qbench: normalised:";
      end_to_end st ~speed ~setup_s:(median !times) ~peak_rss:!peak_rss
    end
  in
  List.iter (fun x -> if not (Float.is_finite x.value) then wrong st "metric %s has no value" x.name) metrics;
  List.iter (fun x -> Printf.printf "  %-32s %14.6f %s\n" x.name x.value x.unit) metrics;
  print_endline (json_of ~st metrics);
  if st.correct then 0 else 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let cli = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME  fig4-panel | exact-certify | serve-evaluate");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  measure for S seconds (whole rounds; untraced runs do at least 24)");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
      ("--cli", Arg.Set_string cli, "PATH  the qubikos executable to spawn as the daemon");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "qbench [options]";
  if !cli = "" || !workload = "" then begin
    prerr_endline "qbench: --workload and --cli are required";
    exit 2
  end;
  exit
    (run ~cli:!cli ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1))
