(* The rule catalogue, R2–R12 (R1 was folded into R10). Every rule is a
   Typedtree check from [Typed_rules]; the engine feeds all of them
   through the same Finding/Suppress/Baseline pipeline. *)

type t = {
  name : string;
  summary : string;
  severity : Finding.severity;
  check : Typed_rules.ctx -> Typedtree.structure -> unit;
}

let all =
  [
    {
      name = "poly-compare";
      summary =
        "polymorphic compare at a structured type, or =/<> against a \
         structural value";
      severity = Finding.Error;
      check = Typed_rules.r2_check;
    };
    {
      name = "float-discipline";
      summary = "float equality / polymorphic min-max-compare on floats";
      severity = Finding.Error;
      check = Typed_rules.r3_check;
    };
    {
      name = "nondet-source";
      summary =
        "wall-clock reads and unsorted hash-order traversal reaching results";
      severity = Finding.Error;
      check = Typed_rules.r4_check;
    };
    {
      name = "obs-discipline";
      summary =
        "Qls_obs usage that breaks the allocation-free-when-disabled \
         contract";
      severity = Finding.Warning;
      check = Typed_rules.r5_check;
    };
    {
      name = "unbounded-wait";
      summary =
        "raw sleeps and unbounded joins in the serving path (lib/serve, \
         lib/harness)";
      severity = Finding.Error;
      check = Typed_rules.r6_check;
    };
    {
      name = "seeded-randomness";
      summary =
        "ambient Random use in the solver stack (lib/sat, lib/router), \
         where all variation must derive from an explicit seed";
      severity = Finding.Error;
      check = Typed_rules.r7_check;
    };
    {
      name = "distance-in-loop";
      summary =
        "Device.distance resolved per candidate in a router loop instead \
         of a hoisted distance_row/distance_matrix";
      severity = Finding.Error;
      check = Typed_rules.r8_check;
    };
    {
      name = "guarded-by";
      summary =
        "fields annotated '(* guarded_by: m *)' accessed outside a scope \
         that holds m";
      severity = Finding.Error;
      check = Typed_rules.r9_check;
    };
    {
      name = "domain-escape";
      summary =
        "non-Atomic mutable state captured or field-assigned by a closure \
         crossing a Pool/Domain/Thread boundary, and top-level lazy values \
         under lib/";
      severity = Finding.Error;
      check = Typed_rules.r10_check;
    };
    {
      name = "blocking-under-mutex";
      summary =
        "Unix/Thread/Pool blocking calls (or Condition.wait on another \
         mutex) inside a Mutex.protect body";
      severity = Finding.Error;
      check = Typed_rules.r11_check;
    };
    {
      name = "cancel-poll-coverage";
      summary =
        "router/solver hot loops with no reachable Qls_cancel poll (lib/\
         router, lib/sat)";
      severity = Finding.Error;
      check = Typed_rules.r12_check;
    };
  ]

let by_name name = List.find_opt (fun r -> String.equal r.name name) all
