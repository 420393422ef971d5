(* qls_lint driver: lint lib/, bin/ and bench/ (or explicit paths) on
   their Typedtrees, apply in-source suppressions and the checked-in
   baseline, print the survivors, exit non-zero when any remain.
   [dune build @lint] runs this over the source tree after
   [dune build @check]; see Qls_lint.Driver for the flags. *)

let () = exit (Qls_lint.Driver.main ~prog:"qls_lint_main" Sys.argv)
