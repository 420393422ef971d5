(* The rule checks. Every rule runs on the Typedtree loaded from the
   build's [.cmt] files (see [Cmt_index]), so callees are resolved
   paths — [Mutex.protect] is [Stdlib.Mutex.protect] however it was
   spelled, and file-local module aliases ([module D = Qls_arch.Device])
   are expanded before matching — expressions carry their instantiated
   types, and record labels carry the type that declared them, which is
   what lets [guarded-by] follow a field across module boundaries. Each
   rule is still an approximation with a documented envelope; the
   suppression comment is the escape hatch. *)

open Typedtree

module StringSet = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* Resolved-path helpers                                               *)

(* Split a module-name segment on "__" so dune's wrapping prefixes
   ("Qls_serve__Cache", "Dune__exe__Main") compare like user paths. *)
let split_wrapped seg =
  let n = String.length seg in
  let rec skip_us i = if i < n && seg.[i] = '_' then skip_us (i + 1) else i in
  let rec go acc start i =
    if i + 1 >= n then String.sub seg start (n - start) :: acc
    else if seg.[i] = '_' && seg.[i + 1] = '_' then
      let piece = String.sub seg start (i - start) in
      let next = skip_us (i + 2) in
      go (piece :: acc) next next
    else go acc start (i + 1)
  in
  List.rev (go [] 0 0) |> List.filter (fun s -> s <> "")

let path_segments p =
  Path.name p
  |> String.split_on_char '.'
  |> List.concat_map split_wrapped
  |> List.map String.lowercase_ascii

let rec list_suffix ~of_:segs suffix =
  let ls = List.length segs and lx = List.length suffix in
  if ls < lx then false
  else if ls = lx then List.equal String.equal segs suffix
  else match segs with [] -> false | _ :: tl -> list_suffix ~of_:tl suffix

let positional_args args =
  List.filter_map
    (function Asttypes.Nolabel, Some e -> Some e | _ -> None)
    args

let find_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go 0

let contains_sub hay needle = Option.is_some (find_sub hay needle)

(* File-local module aliases, [module D = Qls_arch.Device] and
   [let module D = ... in], so [D.distance] matches like
   [Qls_arch.Device.distance]. *)
let module_aliases structure =
  let acc = ref [] in
  let rec target me =
    match me.mod_desc with
    | Tmod_ident (p, _) -> Some p
    | Tmod_constraint (me, _, _, _) -> target me
    | _ -> None
  in
  let note id me =
    match (id, target me) with
    | Some id, Some p -> acc := (id, p) :: !acc
    | _ -> ()
  in
  let module_binding sub mb =
    note mb.mb_id mb.mb_expr;
    Tast_iterator.default_iterator.module_binding sub mb
  in
  let expr sub e =
    (match e.exp_desc with
    | Texp_letmodule (id, _, _, me, _) -> note id me
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with module_binding; expr } in
  it.Tast_iterator.structure it structure;
  !acc

let rec expand aliases p =
  match p with
  | Path.Pident id -> (
      match List.find_opt (fun (a, _) -> Ident.same a id) aliases with
      | Some (_, target) -> expand aliases target
      | None -> p)
  | Path.Pdot (m, s) -> Path.Pdot (expand aliases m, s)
  | _ -> p

(* ------------------------------------------------------------------ *)
(* Type helpers                                                        *)

let first_arg_type ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, t, _, _) -> Some t
  | _ -> None

let is_predef p ty =
  match Types.get_desc ty with
  | Types.Tconstr (q, _, _) -> Path.same p q
  | _ -> false

(* Types whose values are unboxed, where polymorphic comparison is a
   plain integer comparison. Abbreviations are not expanded (the cmt
   carries no usable environment), so [type id = int] counts as
   structured. *)
let immediate ty =
  List.exists
    (fun p -> is_predef p ty)
    [ Predef.path_int; Predef.path_char; Predef.path_bool; Predef.path_unit ]

(* ------------------------------------------------------------------ *)
(* guarded_by annotation registry                                      *)

(* Convention (DESIGN.md §11): a record field whose writes and reads
   must happen under a mutex carries a same-line comment

     mutable hits : int; (* guarded_by: mutex *)

   where the guard name is the record's own mutex field (or a let-bound
   mutex in scope). The registry is keyed by
   (declaring module stem, type name, field name) — the typedtree gives
   us the declaring type of every label, so accesses match no matter
   which module or alias they go through. Declarations come from the
   Typedtree; only the comment is read from the field's source line. *)
module Guards = struct
  type registry = (string * string * string, string) Hashtbl.t

  let empty () : registry = Hashtbl.create 32

  let module_stem file =
    String.lowercase_ascii (Filename.remove_extension (Filename.basename file))

  let is_ident_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = '\''

  (* "  mutable hits : int; (* guarded_by: mutex *)" -> Some "mutex" *)
  let annotation line =
    let marker = "guarded_by:" in
    Option.bind (find_sub line marker) (fun i ->
        let start = i + String.length marker in
        let rest = String.trim (String.sub line start (String.length line - start)) in
        let rec stop j =
          if j < String.length rest && is_ident_char rest.[j] then stop (j + 1)
          else j
        in
        match stop 0 with 0 -> None | j -> Some (String.sub rest 0 j))

  let add_file (reg : registry) ~file ~src structure =
    let lines = Array.of_list (String.split_on_char '\n' src) in
    let stem = module_stem file in
    let type_declaration sub td =
      (match td.typ_kind with
      | Ttype_record fields ->
          List.iter
            (fun ld ->
              let line = ld.ld_loc.Location.loc_start.Lexing.pos_lnum in
              if line >= 1 && line <= Array.length lines then
                Option.iter
                  (Hashtbl.replace reg (stem, td.typ_name.txt, ld.ld_name.txt))
                  (annotation lines.(line - 1)))
            fields
      | _ -> ());
      Tast_iterator.default_iterator.type_declaration sub td
    in
    let it = { Tast_iterator.default_iterator with type_declaration } in
    it.Tast_iterator.structure it structure

  let lookup (reg : registry) key = Hashtbl.find_opt reg key
end

(* ------------------------------------------------------------------ *)
(* Rule plumbing                                                       *)

(* A check walks one file's Typedtree and calls [report] for every
   violation; the engine attaches the rule's name and severity. *)
type ctx = {
  file : string;
  guards : Guards.registry;
  aliases : (Ident.t * Path.t) list;
  report : Location.t -> string -> unit;
}

let context ~file ~guards structure =
  { file; guards; aliases = module_aliases structure; report = (fun _ _ -> ()) }

let run_iterator make_expr structure =
  let it = { Tast_iterator.default_iterator with expr = make_expr } in
  it.Tast_iterator.structure it structure

(* Call [f] on every expression of the structure. *)
let iter_structure f =
  run_iterator (fun sub e ->
      f e;
      Tast_iterator.default_iterator.expr sub e)

(* Call [f] on [e] and every sub-expression. *)
let iter_expr f e =
  let expr sub x =
    f x;
    Tast_iterator.default_iterator.expr sub x
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.Tast_iterator.expr it e

(* Does [e] or any sub-expression satisfy [p]? *)
let exists_expr p e =
  let found = ref false in
  let expr sub x =
    if not !found then
      if p x then found := true else Tast_iterator.default_iterator.expr sub x
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.Tast_iterator.expr it e;
  !found

(* Path scoping: a rule that only applies to part of the tree keys off
   the source path, e.g. [in_scope ctx [ "lib/router" ]]. *)
let in_scope ctx dirs = List.exists (contains_sub ctx.file) dirs

let head_name e =
  match e.exp_desc with Texp_ident (p, _, _) -> Some (Path.name p) | _ -> None

let head_segments ctx e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Some (path_segments (expand ctx.aliases p))
  | _ -> None

let head_matches ctx e suffixes =
  match head_segments ctx e with
  | Some segs -> List.exists (fun s -> list_suffix ~of_:segs s) suffixes
  | None -> false

let head_last ctx e =
  match head_segments ctx e with
  | Some segs -> List.nth_opt (List.rev segs) 0
  | None -> None

(* [Some "compare"] for [Stdlib.compare], however it was reached. *)
let stdlib_value ctx e =
  match head_segments ctx e with
  | Some [ "stdlib"; name ] -> Some name
  | _ -> None

let is_closure e = match e.exp_desc with Texp_function _ -> true | _ -> false

(* Depth counter for "inside a loop" rules (R5, R8): [while]/[for]
   bodies, and closures passed to an iteration function. *)
let loop_walker ~iteration_fn ~on_apply =
  let loop = ref 0 in
  let in_loop f =
    incr loop;
    f ();
    decr loop
  in
  fun sub e ->
    let visit x = sub.Tast_iterator.expr sub x in
    match e.exp_desc with
    | Texp_while (cond, body) ->
        in_loop (fun () ->
            visit cond;
            visit body)
    | Texp_for (_, _, lo, hi, _, body) ->
        visit lo;
        visit hi;
        in_loop (fun () -> visit body)
    | Texp_apply (f, args) ->
        on_apply ~in_loop:(!loop > 0) e f args;
        if iteration_fn f then (
          visit f;
          List.iter
            (function
              | _, Some a when is_closure a -> in_loop (fun () -> visit a)
              | _, Some a -> visit a
              | _, None -> ())
            args)
        else Tast_iterator.default_iterator.expr sub e
    | _ -> Tast_iterator.default_iterator.expr sub e

(* ------------------------------------------------------------------ *)
(* R2 — poly-compare                                                   *)
(* [Stdlib.compare] at a structured type (any use: applied, or passed
   to a sort or a Set functor), and [=]/[<>] against a structural
   literal ([], [::], [None], [Some _], a tuple, a record, an array, a
   polymorphic variant with an argument). Both order unknown
   representations with the raw runtime walk — the pre-PR-4
   [Progress.render] misordering — and both have a monomorphic spelling
   ([Int.compare], [Float.compare], a pair comparator,
   [List.is_empty], [Option.is_none], a pattern match). At an
   immediate type (int, char, bool, unit) the comparison is a plain
   integer one and the rule stays silent. *)

let structural_literal e =
  match e.exp_desc with
  | Texp_construct (_, cd, _) -> (
      match cd.Types.cstr_name with
      | "[]" | "::" | "None" | "Some" -> true
      | _ -> false)
  | Texp_tuple _ | Texp_record _ | Texp_array _ | Texp_variant (_, Some _) ->
      true
  | _ -> false

let at_structured_type f =
  match first_arg_type f.exp_type with
  | Some t -> not (immediate t)
  | None -> true

let r2_check ctx =
  iter_structure (fun e ->
      match e.exp_desc with
      | Texp_ident _ -> (
          match stdlib_value ctx e with
          | Some "compare" when at_structured_type e ->
              ctx.report e.exp_loc
                "bare polymorphic 'compare' at a structured type; use a \
                 monomorphic comparator (Int.compare, Float.compare, \
                 String.compare, or an explicit tuple comparator)"
          | _ -> ())
      | Texp_apply (f, args) -> (
          match stdlib_value ctx f with
          | Some (("=" | "<>") as op)
            when at_structured_type f
                 && List.exists
                      (function _, Some a -> structural_literal a | _ -> false)
                      args ->
              ctx.report e.exp_loc
                (Printf.sprintf
                   "polymorphic '%s' against a structural value; prefer a \
                    pattern match, List.is_empty, or Option.is_none/is_some"
                   op)
          | _ -> ())
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* R3 — float-discipline                                               *)
(* [Stdlib] [=]/[<>]/[==]/[!=]/[min]/[max]/[compare] instantiated at
   [float], applied or passed as a value: float equality is
   representation-sensitive and polymorphic min/max/compare mishandle
   NaN — the class of bug fixed in [Metrics.median] (PR 3). Ordering
   comparisons ([<], [>]) are left alone: they are well-defined on
   non-NaN floats and flagging them would bury the signal. *)

let r3_check ctx =
  iter_structure (fun e ->
      match stdlib_value ctx e with
      | Some (("=" | "<>" | "==" | "!=" | "min" | "max" | "compare") as op)
        when Option.fold ~none:false
               ~some:(is_predef Predef.path_float)
               (first_arg_type e.exp_type) ->
          ctx.report e.exp_loc
            (Printf.sprintf
               "'%s' on float operands; use Float.compare / Float.equal / \
                Float.min / Float.max (NaN-aware) or compare against an \
                epsilon"
               op)
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* R4 — nondet-source                                                  *)
(* Wall-clock reads and unordered hash-table traversal: both are
   invisible nondeterminism that breaks checkpoint/golden exactness the
   moment their result reaches an output. [Hashtbl.fold]/[iter] escape
   the flag when the traversal sits inside an argument of a callee
   whose name contains "sort" — the one shape whose output order is
   independent of table internals. The typer has already turned
   [x |> f a] and [f a @@ x] into [f a x], so pipelines need no special
   case. Anything else is flagged: wall-clock timing metrics are
   legitimate but must say so with a suppression. *)

let r4_check ctx structure =
  (* [List.sort cmp] partially applied, then applied again by a pipe. *)
  let rec sort_head e =
    match e.exp_desc with
    | Texp_apply (f, _) -> sort_head f
    | _ -> (
        match head_last ctx e with
        | Some name -> contains_sub name "sort"
        | None -> false)
  in
  let sorted = ref false in
  let expr sub e =
    (match head_segments ctx e with
    | Some segs when list_suffix ~of_:segs [ "random"; "self_init" ] ->
        ctx.report e.exp_loc
          "Random.self_init seeds from the environment; thread an explicit \
           seeded Rng.t instead"
    | Some segs
      when List.exists (list_suffix ~of_:segs)
             [ [ "sys"; "time" ]; [ "unix"; "gettimeofday" ]; [ "unix"; "time" ] ]
      ->
        ctx.report e.exp_loc
          "wall-clock read; results derived from it are not reproducible \
           (suppress when this is a timing metric that never reaches routed \
           output)"
    | Some segs
      when (not !sorted)
           && List.exists (list_suffix ~of_:segs)
                [ [ "hashtbl"; "fold" ]; [ "hashtbl"; "iter" ] ] ->
        ctx.report e.exp_loc
          (Printf.sprintf
             "Hashtbl.%s traverses in hash order; sort the result before it \
              reaches an output, or suppress with the reason the order \
              cannot matter"
             (List.hd (List.rev segs)))
    | _ -> ());
    match e.exp_desc with
    | Texp_apply (f, args) when sort_head f ->
        sub.Tast_iterator.expr sub f;
        let saved = !sorted in
        sorted := true;
        List.iter
          (function _, Some a -> sub.Tast_iterator.expr sub a | _ -> ())
          args;
        sorted := saved
    | _ -> Tast_iterator.default_iterator.expr sub e
  in
  run_iterator expr structure

(* ------------------------------------------------------------------ *)
(* R5 — obs-discipline                                                 *)
(* Protects the Qls_obs allocation-free-when-disabled contract
   (DESIGN.md §10): [Qls_obs.stop ~attrs:[...]] with an eager literal
   attribute list must sit in a branch guarded by the once-per-pass
   [traced]/[enabled] read, and [Qls_obs.enabled]/[Qls_obs.counter]
   must not be re-read inside a loop or per-element closure. *)

let r5_iteration_fn ctx e =
  match head_segments ctx e with
  | Some segs -> (
      match List.rev segs with
      | fn :: m :: _ ->
          List.mem m [ "list"; "array"; "seq"; "queue"; "hashtbl" ]
          && List.mem fn
               [
                 "iter"; "iteri"; "map"; "mapi"; "fold_left"; "fold_right";
                 "fold"; "filter"; "filter_map"; "concat_map"; "for_all";
                 "exists";
               ]
      | _ -> false)
  | None -> false

let mentions_enabled =
  exists_expr (fun x ->
      match x.exp_desc with
      | Texp_ident (p, _, _) ->
          let name = Path.last p in
          contains_sub name "enabled" || contains_sub name "trace"
      | _ -> false)

(* [~attrs:[...]] to the optional [?attrs] arrives wrapped in [Some]. *)
let literal_attrs args =
  let rec list_literal e =
    match e.exp_desc with
    | Texp_construct (_, { Types.cstr_name = "::"; _ }, _) -> true
    | Texp_construct (_, { Types.cstr_name = "Some"; _ }, [ inner ]) ->
        list_literal inner
    | _ -> false
  in
  List.exists
    (function
      | (Asttypes.Labelled "attrs" | Asttypes.Optional "attrs"), Some a ->
          list_literal a
      | _ -> false)
    args

let r5_check ctx structure =
  let guarded = ref false in
  let on_apply ~in_loop e f args =
    match head_segments ctx f with
    | Some segs when in_loop && list_suffix ~of_:segs [ "qls_obs"; "enabled" ]
      ->
        ctx.report e.exp_loc
          "Qls_obs.enabled read inside a loop; read it once per pass into a \
           local and branch on that"
    | Some segs when in_loop && list_suffix ~of_:segs [ "qls_obs"; "counter" ]
      ->
        ctx.report e.exp_loc
          "Qls_obs.counter looked up inside a loop; hoist it to a \
           module-level value"
    | Some segs
      when list_suffix ~of_:segs [ "qls_obs"; "stop" ]
           && literal_attrs args && not !guarded ->
        ctx.report e.exp_loc
          "Qls_obs.stop with an eager ~attrs list outside an \
           if-enabled/traced guard; the list allocates even with tracing \
           disabled"
    | _ -> ()
  in
  let walk = loop_walker ~iteration_fn:(r5_iteration_fn ctx) ~on_apply in
  let expr sub e =
    match e.exp_desc with
    | Texp_ifthenelse (cond, then_, else_) when mentions_enabled cond ->
        sub.Tast_iterator.expr sub cond;
        let saved = !guarded in
        guarded := true;
        sub.Tast_iterator.expr sub then_;
        guarded := saved;
        Option.iter (sub.Tast_iterator.expr sub) else_
    | _ -> walk sub e
  in
  run_iterator expr structure

(* ------------------------------------------------------------------ *)
(* R6 — unbounded-wait                                                 *)
(* Scoped to the serving path (lib/serve, lib/harness): a raw sleep or
   an unbounded [Thread.join] there is a liveness hazard — the daemon's
   drain, watchdog, and reader threads must all make progress under a
   deadline, so every blocking wait needs either a bound (select with a
   timeout, a condition re-checked against a deadline) or a one-line
   [(* lint: unbounded-wait — why this terminates *)] justification.
   PR 7's watchdog exists precisely because a single quiet join can pin
   the whole process. Elsewhere in the tree sleeps are fine (fault
   injection's [Delay] is one on purpose). *)

let r6_check ctx structure =
  if in_scope ctx [ "lib/serve"; "lib/harness" ] then
    iter_structure
      (fun e ->
        match head_segments ctx e with
        | Some segs
          when List.exists (list_suffix ~of_:segs)
                 [ [ "unix"; "sleep" ]; [ "unix"; "sleepf" ]; [ "thread"; "delay" ] ]
          ->
            ctx.report e.exp_loc
              (Printf.sprintf
                 "%s in the serving path blocks a thread with no way to \
                  cancel it; wait on a select/condition with a timeout, or \
                  justify the bound with a suppression"
                 (Option.value ~default:"?" (head_name e)))
        | Some segs when list_suffix ~of_:segs [ "thread"; "join" ] ->
            ctx.report e.exp_loc
              "Thread.join in the serving path is unbounded if the thread \
               never exits; prove the thread's termination is bounded and \
               justify it with a suppression, or wait under a deadline"
        | _ -> ())
      structure

(* ------------------------------------------------------------------ *)
(* R7 — seeded-randomness                                              *)
(* Scoped to the solver stack (lib/sat, lib/router): portfolio racing
   records the winning configuration's seed so a race can be replayed
   bit-for-bit, which only works if every source of variation is a pure
   function of an explicit seed ([Solver.config_of_seed], [Rng.create]).
   Ambient [Stdlib.Random] state — seeded once per process, advanced by
   whoever calls it first — breaks that contract silently, so in these
   directories any [Random] value (including [Random.State]) is an
   error. Elsewhere (e.g. a bench warmup) ambient randomness is merely
   suspicious, not forbidden. *)

let r7_check ctx structure =
  if in_scope ctx [ "lib/sat"; "lib/router" ] then
    iter_structure
      (fun e ->
        match head_segments ctx e with
        | Some ("stdlib" :: "random" :: _ :: _) ->
            ctx.report e.exp_loc
              "the solver and router layers must derive all variation from \
               an explicit seed (Solver.config_of_seed, Rng.create); ambient \
               Random state breaks portfolio winner-seed replay"
        | _ -> ())
      structure

(* ------------------------------------------------------------------ *)
(* R8 — distance-in-loop                                               *)
(* Scoped to the router layer (lib/router): [Device.distance] resolved
   per candidate inside an iteration closure, a sort comparator, or a
   while/for body repeats the APSP row lookup on every probe — the
   pattern PR 9's hot-path rewrite removed from the scoring loops.
   Hoist [Device.distance_row] (or [Device.distance_matrix]) out of the
   loop and index the returned row directly; the accessors alias the
   device's preallocated table, so the hoist is free. A genuinely
   once-per-round lookup can carry a suppression saying so. A sort
   comparator runs O(n log n) times and module-local folds
   ([Graph.fold_edges]) iterate too, so any callee whose name starts
   with an iteration-shaped prefix counts as a loop. *)

let r8_check ctx structure =
  if in_scope ctx [ "lib/router" ] then
    let iteration_fn e =
      match head_last ctx e with
      | Some name ->
          List.exists (fun prefix -> String.starts_with ~prefix name)
            [
              "iter"; "map"; "fold"; "filter"; "exists"; "for_all"; "find";
              "concat_map"; "sort"; "partition";
            ]
      | None -> false
    in
    let on_apply ~in_loop e f _ =
      if in_loop && head_matches ctx f [ [ "device"; "distance" ] ] then
        ctx.report e.exp_loc
          "Device.distance inside a per-candidate loop repeats the APSP row \
           lookup on every probe; hoist Device.distance_row (or \
           Device.distance_matrix) above the loop and index the row, or \
           suppress with the reason the lookup is once-per-round"
    in
    run_iterator (loop_walker ~iteration_fn ~on_apply) structure

(* ------------------------------------------------------------------ *)
(* Mutex helpers shared by R9 and R11                                  *)

let guard_name_of_mutex e =
  match e.exp_desc with
  | Texp_field (_, _, lbl) -> lbl.Types.lbl_name
  | Texp_ident (p, _, _) -> Path.last p
  | _ -> "*"

let is_protect_head ctx e = head_matches ctx e [ [ "mutex"; "protect" ] ]

(* Guard names this expression locks somewhere inside: [Mutex.lock m]
   and [Condition.wait c m] (which re-acquires [m] before returning). *)
let locked_names ctx e =
  let acc = ref StringSet.empty in
  let add m = acc := StringSet.add (guard_name_of_mutex m) !acc in
  iter_expr
    (fun x ->
      match x.exp_desc with
      | Texp_apply (fn, args) when head_matches ctx fn [ [ "mutex"; "lock" ] ]
        -> (
          match positional_args args with m :: _ -> add m | [] -> ())
      | Texp_apply (fn, args)
        when head_matches ctx fn [ [ "condition"; "wait" ] ] -> (
          match positional_args args with [ _; m ] -> add m | _ -> ())
      | _ -> ())
    e;
  !acc

(* The label's [lbl_res] is the record type it projects from; its head
   constructor path names the declaring type. Local types print as just
   "t", so the current file supplies the module stem in that case. *)
let label_key ctx (lbl : Types.label_description) =
  let stem = Guards.module_stem ctx.file in
  match Types.get_desc lbl.Types.lbl_res with
  | Types.Tconstr (p, _, _) -> (
      match List.rev (path_segments p) with
      | tname :: m :: _ -> (m, tname, lbl.Types.lbl_name)
      | [ tname ] -> (stem, tname, lbl.Types.lbl_name)
      | [] -> (stem, "", lbl.Types.lbl_name))
  | _ -> (stem, "", lbl.Types.lbl_name)

(* ------------------------------------------------------------------ *)
(* R9 — guarded-by                                                     *)
(* Envelope: a guarded field access is "held" when it sits inside the
   thunk of [Mutex.protect m' _] or inside a function that locks [m']
   somewhere ([Mutex.lock]/[Condition.wait] — function granularity, so
   lock...unlock windows are not tracked precisely), where [m'] has the
   same guard *name* as the annotation. Lock identity is by name, not
   by object: locking cache A and touching cache B's fields is out of
   scope. Record literals (construction) are not accesses. *)

let r9_check ctx structure =
  let held = ref StringSet.empty in
  let is_held g = StringSet.mem g !held || StringSet.mem "*" !held in
  let check loc (lbl : Types.label_description) =
    match Guards.lookup ctx.guards (label_key ctx lbl) with
    | None -> ()
    | Some guard ->
        if not (is_held guard) then
          ctx.report loc
            (Printf.sprintf
               "field '%s' is marked 'guarded_by: %s' but is accessed with no \
                enclosing Mutex.protect/lock of '%s'"
               lbl.Types.lbl_name guard guard)
  in
  let with_held extra f =
    let saved = !held in
    held := StringSet.union saved extra;
    f ();
    held := saved
  in
  let expr sub e =
    match e.exp_desc with
    | Texp_field (_, _, lbl) ->
        check e.exp_loc lbl;
        Tast_iterator.default_iterator.expr sub e
    | Texp_setfield (_, _, lbl, _) ->
        check e.exp_loc lbl;
        Tast_iterator.default_iterator.expr sub e
    | Texp_apply (fn, args) when is_protect_head ctx fn -> (
        match positional_args args with
        | [ m; thunk ] ->
            sub.Tast_iterator.expr sub m;
            with_held
              (StringSet.singleton (guard_name_of_mutex m))
              (fun () -> sub.Tast_iterator.expr sub thunk)
        | _ -> Tast_iterator.default_iterator.expr sub e)
    | Texp_function _ ->
        with_held (locked_names ctx e) (fun () ->
            Tast_iterator.default_iterator.expr sub e)
    | _ -> Tast_iterator.default_iterator.expr sub e
  in
  run_iterator expr structure

(* ------------------------------------------------------------------ *)
(* R10 — domain-escape                                                 *)
(* Three shapes of state shared across domains (or systhreads) without
   synchronisation. (1) A literal [fun]-closure in argument position of
   Pool.submit/Pool.run/Pool.map/Domain.spawn/Thread.create captures a
   value whose type contains a known non-Atomic mutable cell
   (ref/Hashtbl/Buffer/Queue/Stack/bytes, at any depth of the captured
   value's type). Arrays are exempt (disjoint-index writes are the
   pool's result-collection idiom), as are Atomic/Mutex/Condition/
   Semaphore values. (2) Such a closure assigns a mutable field of a
   captured record ([r.f <- v]); reading record fields is R9's
   business. (3) Under lib/, a [lazy] value built at module
   initialisation: whichever domain forces it first runs the thunk, and
   a second domain forcing it meanwhile raises
   [CamlinternalLazy.Undefined] — build the value eagerly instead (the
   Qls_obs registries are mutex-guarded, so counters can be looked up
   at module initialisation). *)

let spawn_suffixes =
  [
    [ "pool"; "submit" ]; [ "pool"; "run" ]; [ "pool"; "map" ];
    [ "domain"; "spawn" ]; [ "thread"; "create" ];
  ]

let mutable_cell_name segs =
  List.find_map
    (fun (suffix, name) -> if list_suffix ~of_:segs suffix then Some name else None)
    [
      ([ "ref" ], "ref"); ([ "hashtbl"; "t" ], "Hashtbl.t");
      ([ "buffer"; "t" ], "Buffer.t"); ([ "queue"; "t" ], "Queue.t");
      ([ "stack"; "t" ], "Stack.t"); ([ "bytes" ], "bytes");
    ]

let shared_safe segs =
  List.exists
    (fun s -> List.mem s [ "atomic"; "mutex"; "condition"; "semaphore" ])
    segs

let rec find_mutable_cell seen ty =
  let id = Types.get_id ty in
  if List.mem id !seen then None
  else begin
    seen := id :: !seen;
    match Types.get_desc ty with
    | Types.Tconstr (p, args, _) ->
        let segs = path_segments p in
        if shared_safe segs then None
        else (
          match mutable_cell_name segs with
          | Some _ as cell -> cell
          | None -> List.find_map (find_mutable_cell seen) args)
    | Types.Ttuple ts -> List.find_map (find_mutable_cell seen) ts
    | Types.Tpoly (t, _) -> find_mutable_cell seen t
    | _ -> None
  end

(* Free value identifiers of a closure, and the field assignments whose
   target is one. Typed idents are globally unique (stamped), so "used
   somewhere minus bound somewhere" is exact — no scope bookkeeping
   needed. *)
let closure_captures closure =
  let bound = ref [] in
  let uses = ref [] in
  let setfields = ref [] in
  let pat (type k) sub (p : k general_pattern) =
    bound := pat_bound_idents p @ !bound;
    Tast_iterator.default_iterator.pat sub p
  in
  let expr sub e =
    (match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) -> uses := (id, e) :: !uses
    | Texp_for (id, _, _, _, _, _) -> bound := id :: !bound
    | Texp_setfield
        ({ exp_desc = Texp_ident (Path.Pident id, _, _); _ }, _, lbl, _) ->
        setfields := (id, lbl, e) :: !setfields
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr; pat } in
  it.Tast_iterator.expr it closure;
  let free id = not (List.exists (Ident.same id) !bound) in
  ( List.filter (fun (id, _) -> free id) (List.rev !uses),
    List.filter (fun (id, _, _) -> free id) (List.rev !setfields) )

(* [lazy] values evaluated at module initialisation: everything outside
   a function body. *)
let toplevel_lazies structure =
  let acc = ref [] in
  let expr sub e =
    match e.exp_desc with
    | Texp_function _ -> ()
    | Texp_lazy _ ->
        acc := e.exp_loc :: !acc;
        Tast_iterator.default_iterator.expr sub e
    | _ -> Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.Tast_iterator.structure it structure;
  !acc

let r10_check ctx structure =
  let report_closure closure =
    let captures, setfields = closure_captures closure in
    let reported = ref [] in
    List.iter
      (fun (id, (occ : expression)) ->
        if not (List.exists (Ident.same id) !reported) then
          match find_mutable_cell (ref []) occ.exp_type with
          | Some cell ->
              reported := id :: !reported;
              ctx.report occ.exp_loc
                (Printf.sprintf
                   "'%s' (type contains %s, a non-Atomic mutable cell) is \
                    captured by a closure that crosses a domain boundary; \
                    share it via Atomic/mutex-guarded state or suppress it \
                    as a documented scratch"
                   (Ident.name id) cell)
          | None -> ())
      captures;
    List.iter
      (fun (id, (lbl : Types.label_description), (e : expression)) ->
        if not (List.exists (Ident.same id) !reported) then
          ctx.report e.exp_loc
            (Printf.sprintf
               "field assignment '%s.%s' mutates a record captured by a \
                closure that crosses a domain boundary; use Atomic, a mutex, \
                or domain-confined state"
               (Ident.name id) lbl.Types.lbl_name))
      setfields
  in
  let expr sub e =
    (match e.exp_desc with
    | Texp_apply (fn, args) when head_matches ctx fn spawn_suffixes ->
        List.iter
          (function _, Some a when is_closure a -> report_closure a | _ -> ())
          args
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  run_iterator expr structure;
  if in_scope ctx [ "lib/" ] then
    List.iter
      (fun loc ->
        ctx.report loc
          "top-level lazy value: two domains forcing it at once raise \
           CamlinternalLazy.Undefined; build it at module initialisation \
           instead")
      (toplevel_lazies structure)

(* ------------------------------------------------------------------ *)
(* R11 — blocking-under-mutex                                          *)
(* Envelope: lexically inside the thunk of [Mutex.protect] (plain
   lock/unlock windows have no syntactic extent, so they are R9's
   function-granularity problem, not R11's). A closure *defined* under
   protect but run later is still flagged — suppress if that is the
   design. [Condition.wait c m] is fine on the protected mutex itself
   and an error on any other. *)

let blocking_suffixes =
  [
    [ "unix"; "select" ]; [ "unix"; "sleep" ]; [ "unix"; "sleepf" ];
    [ "unix"; "read" ]; [ "unix"; "write" ]; [ "unix"; "recv" ];
    [ "unix"; "send" ]; [ "unix"; "accept" ]; [ "unix"; "connect" ];
    [ "thread"; "delay" ]; [ "thread"; "join" ];
    [ "pool"; "drain" ]; [ "pool"; "run" ];
  ]

let r11_check ctx structure =
  let held : string list ref = ref [] in
  let expr sub e =
    match e.exp_desc with
    | Texp_apply (fn, args) when is_protect_head ctx fn -> (
        match positional_args args with
        | [ m; thunk ] ->
            sub.Tast_iterator.expr sub m;
            let saved = !held in
            held := guard_name_of_mutex m :: saved;
            sub.Tast_iterator.expr sub thunk;
            held := saved
        | _ -> Tast_iterator.default_iterator.expr sub e)
    | Texp_apply (fn, args) when not (List.is_empty !held) ->
        (match head_segments ctx fn with
        | Some segs ->
            if List.exists (fun s -> list_suffix ~of_:segs s) blocking_suffixes
            then
              ctx.report e.exp_loc
                (Printf.sprintf
                   "blocking call '%s' inside a Mutex.protect body (mutex \
                    '%s' held) can stall every thread contending for the lock"
                   (Option.value ~default:"?" (head_name fn))
                   (List.hd !held))
            else if list_suffix ~of_:segs [ "condition"; "wait" ] then (
              match positional_args args with
              | [ _; m ] ->
                  let g = guard_name_of_mutex m in
                  if g <> "*" && (not (List.mem g !held)) && not (List.mem "*" !held)
                  then
                    ctx.report e.exp_loc
                      (Printf.sprintf
                         "Condition.wait on mutex '%s' inside Mutex.protect \
                          of '%s' — waiting releases the wrong lock"
                         g (List.hd !held))
              | _ -> ())
        | None -> ());
        Tast_iterator.default_iterator.expr sub e
    | _ -> Tast_iterator.default_iterator.expr sub e
  in
  run_iterator expr structure

(* ------------------------------------------------------------------ *)
(* R12 — cancel-poll-coverage                                          *)
(* Scope: lib/router and lib/sat, the hot paths PR 7's deadlines rely
   on. A [while] loop (and a structure-level recursive function) must
   contain a reachable [Qls_cancel.poll]/[expire_check]: directly, or
   through a call to a file-local function that transitively polls.
   [for] loops are exempt (bounded by construction in this codebase);
   nested [let rec] helpers are covered indirectly through the loops
   that drive them. *)

let poll_suffixes =
  [ [ "qls_cancel"; "poll" ]; [ "qls_cancel"; "expire_check" ] ]

let polls_directly ctx = exists_expr (fun x -> head_matches ctx x poll_suffixes)

let callee_names e =
  let acc = ref StringSet.empty in
  iter_expr
    (fun x ->
      match x.exp_desc with
      | Texp_apply ({ exp_desc = Texp_ident (Path.Pident id, _, _); _ }, _) ->
          acc := StringSet.add (Ident.name id) !acc
      | _ -> ())
    e;
  !acc

let r12_check ctx structure =
  if in_scope ctx [ "lib/router"; "lib/sat" ] then begin
    (* Pass 1: which file-local functions (transitively) poll? *)
    let bindings = ref [] in
    let value_binding sub vb =
      (match vb.vb_pat.pat_desc with
      | Tpat_var (id, _) ->
          bindings :=
            (Ident.name id, polls_directly ctx vb.vb_expr, callee_names vb.vb_expr)
            :: !bindings
      | _ -> ());
      Tast_iterator.default_iterator.value_binding sub vb
    in
    let it = { Tast_iterator.default_iterator with value_binding } in
    it.Tast_iterator.structure it structure;
    let calls_into set callees = StringSet.exists (fun n -> StringSet.mem n set) callees in
    let rec fixpoint polling =
      let grown =
        List.fold_left
          (fun acc (name, direct, callees) ->
            if direct || calls_into polling callees then StringSet.add name acc
            else acc)
          polling !bindings
      in
      if StringSet.equal grown polling then polling else fixpoint grown
    in
    let polling = fixpoint StringSet.empty in
    let reachable e = polls_directly ctx e || calls_into polling (callee_names e) in
    (* Pass 2: while loops. *)
    iter_structure
      (fun e ->
        match e.exp_desc with
        | Texp_while (cond, body) when not (reachable cond || reachable body) ->
            ctx.report e.exp_loc
              "while loop in a router/solver hot path has no reachable \
               Qls_cancel.poll — deadlines cannot fire here; poll or add a \
               one-line justification"
        | _ -> ())
      structure;
    (* Pass 3: structure-level recursive functions. *)
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (Asttypes.Recursive, vbs) ->
            let group_ids =
              List.filter_map
                (fun vb ->
                  match vb.vb_pat.pat_desc with
                  | Tpat_var (id, _) -> Some id
                  | _ -> None)
                vbs
            in
            let calls_group x =
              match x.exp_desc with
              | Texp_ident (Path.Pident i, _, _) ->
                  List.exists (Ident.same i) group_ids
              | _ -> false
            in
            List.iter
              (fun vb ->
                match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
                | Tpat_var (id, _), Texp_function _
                  when exists_expr calls_group vb.vb_expr
                       && not (reachable vb.vb_expr) ->
                    ctx.report vb.vb_loc
                      (Printf.sprintf
                         "recursive function '%s' in a router/solver hot path \
                          has no reachable Qls_cancel.poll — poll or add a \
                          one-line justification"
                         (Ident.name id))
                | _ -> ())
              vbs
        | _ -> ())
      structure.str_items
  end
