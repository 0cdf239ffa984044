(** A reusable set of small non-negative ints (cache-line numbers).

    Replaces the per-FASE [(int, unit) Hashtbl.t] dirty-line tables in
    the VM hot loop: O(1) [add]/[mem] via open addressing, iteration in
    {e insertion order} (deterministic flush order, independent of any
    hash function's bucket layout), and an allocation-free {!reset}
    that keeps the backing storage so the structure is reused across
    FASEs. *)

type t

val create : ?capacity:int -> unit -> t
(** [create ~capacity ()] pre-sizes for about [capacity] members
    (rounded up to a power of two; default 16). *)

val add : t -> int -> unit
(** Insert a member; no-op if already present.
    @raise Invalid_argument on negative members. *)

val cardinal : t -> int
val is_empty : t -> bool

val nth : t -> int -> int
(** The [i]-th member in insertion order, for [0 <= i < cardinal t].
    @raise Invalid_argument out of range. *)

val reset : t -> unit
(** Empty the set without allocating, keeping storage for reuse. *)
