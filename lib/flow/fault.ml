(* Flow-level name for the fault-injection registry.

   The implementation lives in the zero-dependency [Fault_core] library
   so layers *below* flow (satkit's solver) can declare
   injection points too; this alias is the name the rest of the flow
   layer and the CLI use.  See lib/faults/fault_core.ml for the spec
   grammar and determinism guarantees. *)

include Fault_core
