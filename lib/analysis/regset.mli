(** Sets of virtual registers (thin wrapper over [Set.Make(Int)]). *)

include Set.S with type elt = int
