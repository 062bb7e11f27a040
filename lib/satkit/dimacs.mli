(** DIMACS CNF interchange: read external SAT instances, export CNFs (e.g.
    CEC miters) to other solvers. *)

exception Parse_error of string

val read : in_channel -> int * Lit.t list list
(** [(num_vars, clauses)]; comment and problem lines are handled, variable
    counts are corrected upward if literals exceed the header. *)

val read_file : string -> int * Lit.t list list

val load_file : string -> Solver.t
(** Read a DIMACS file straight into a fresh solver. *)

val write : out_channel -> num_vars:int -> Lit.t list list -> unit
val write_file : string -> num_vars:int -> Lit.t list list -> unit
