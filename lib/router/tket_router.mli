(** A t|ket⟩-style slice-lookahead router (Cowtan et al., "On the qubit
    routing problem", 2019).

    t|ket⟩'s routing pass views the circuit as a sequence of timeslices of
    parallel two-qubit gates. When the current slice is blocked it scores
    candidate SWAPs by the summed post-SWAP distances over the next
    [lookahead_slices] timeslices, geometrically discounted by
    [slice_discount], and applies the best one. Compared with SABRE it has
    no per-qubit decay and its lookahead window is structured by slices
    rather than by a fixed gate count; its initial placement is a
    graph-similarity heuristic rather than SABRE's bidirectional
    refinement. Both differences are faithful to the tools' published
    designs and explain the qualitatively larger optimality gap the paper
    measures for t|ket⟩ (§IV-B).

    The initial placement, unless supplied, tries a full subgraph
    monomorphism first (t|ket⟩'s graph placement solves SWAP-free
    instances outright) and falls back to interaction-degree greedy
    placement. *)

type options = {
  lookahead_slices : int;  (** slices scored per decision, default 4 *)
  slice_discount : float;  (** geometric slice weight, default 0.7 *)
  seed : int;  (** tie-breaking stream *)
  vf2_node_limit : int;  (** budget for the placement isomorphism try *)
  release_valve_after : int;  (** anti-oscillation threshold *)
}

val default_options : options
(** 4 slices at discount 0.7, seed 0. *)

val route :
  ?options:options ->
  ?initial:Qls_layout.Mapping.t ->
  Qls_arch.Device.t ->
  Qls_circuit.Circuit.t ->
  Qls_layout.Transpiled.t
(** Run the router. *)

val router : ?options:options -> unit -> Router.t
(** Package as ["tket"]. *)
