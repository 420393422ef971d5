(* Replay checker for routed results, written for the benchmark alone:
   it shares no code with Qls_layout.Verifier or Route_state. It walks
   the op list once, keeping its own program->physical and
   physical->program tables, and demands that

   - every source gate is emitted exactly once,
   - the gates touching each program qubit come out in source order,
   - every two-qubit gate and every SWAP acts on a coupled pair.

   Only plain data is read from the library: the circuit's gate qubits,
   the device's coupler list, the initial table and the op list. *)

module Circuit = Qls_circuit.Circuit
module Gate = Qls_circuit.Gate
module Device = Qls_arch.Device
module Transpiled = Qls_layout.Transpiled

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

(* [check ~device ~circuit t] replays [t] against the instance it claims
   to route and returns its SWAP count. [device] and [circuit] come from
   the instance, not from [t], so a result bundling the wrong source is
   caught. *)
let check ~device ~circuit (t : Transpiled.t) =
  let n_phys = Device.n_qubits device in
  let adj = Array.make (n_phys * n_phys) false in
  List.iter
    (fun (a, b) ->
      adj.((a * n_phys) + b) <- true;
      adj.((b * n_phys) + a) <- true)
    (Device.edges device);
  let coupled a b = a >= 0 && b >= 0 && adj.((a * n_phys) + b) in
  let gates = Circuit.gates circuit in
  let n_gates = Array.length gates in
  let pos = Qls_layout.Mapping.to_array (Transpiled.initial_mapping t) in
  let n_prog = Array.length pos in
  if n_prog <> Circuit.n_qubits circuit then
    fail "mapping covers %d program qubits, circuit has %d" n_prog
      (Circuit.n_qubits circuit)
  else begin
    let occ = Array.make n_phys (-1) and injective = ref true in
    Array.iteri
      (fun q p ->
        if p < 0 || p >= n_phys || occ.(p) >= 0 then injective := false
        else occ.(p) <- q)
      pos;
    (* The source gates of each program qubit, in order, as a queue. *)
    let pending = Array.make n_prog [] in
    for i = n_gates - 1 downto 0 do
      List.iter (fun q -> pending.(q) <- i :: pending.(q)) (Gate.qubits gates.(i))
    done;
    let emitted = ref 0 and swaps = ref 0 in
    let rec go k = function
      | [] ->
          if !emitted = n_gates then Ok !swaps
          else fail "%d of %d source gates never emitted" (n_gates - !emitted) n_gates
      | Transpiled.Gate i :: rest ->
          if i < 0 || i >= n_gates then fail "op %d: gate index %d out of range" k i
          else
            let qs = Gate.qubits gates.(i) in
            let next q = match pending.(q) with j :: _ -> j = i | [] -> false in
            if not (List.for_all next qs) then
              fail "op %d: gate %d emitted twice or out of qubit order" k i
            else begin
              List.iter (fun q -> pending.(q) <- List.tl pending.(q)) qs;
              incr emitted;
              match qs with
              | [ a; b ] when not (coupled pos.(a) pos.(b)) ->
                  fail "op %d: gate %d on uncoupled (%d,%d)" k i pos.(a) pos.(b)
              | _ -> go (k + 1) rest
            end
      | Transpiled.Swap (p, p') :: rest ->
          if p < 0 || p' < 0 || p >= n_phys || p' >= n_phys || not (coupled p p')
          then fail "op %d: SWAP on uncoupled (%d,%d)" k p p'
          else begin
            let a = occ.(p) and b = occ.(p') in
            occ.(p) <- b;
            occ.(p') <- a;
            if a >= 0 then pos.(a) <- p';
            if b >= 0 then pos.(b) <- p;
            incr swaps;
            go (k + 1) rest
          end
    in
    if !injective then go 0 (Transpiled.ops t)
    else fail "initial mapping is not an injective table"
  end
