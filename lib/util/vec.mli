(** Growable array with amortised O(1) append, preserving insertion
    order (iteration visits elements oldest first, exactly like the
    append-at-tail lists it replaces). *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val get : 'a t -> int -> 'a
(** @raise Invalid_argument out of bounds. *)

val set : 'a t -> int -> 'a -> unit
(** Overwrite an existing slot.  Exported with {!pop} for the
    reference model of Pmem's dirty index in the tests.
    @raise Invalid_argument out of bounds. *)

val push : 'a t -> 'a -> unit
(** Append at the tail. *)

val pop : 'a t -> 'a
(** Remove and return the last element.
    @raise Invalid_argument when empty. *)

val clear : 'a t -> unit
(** Drop every element (and the backing storage). *)

val truncate : 'a t -> unit
(** Drop every element but keep the backing storage for reuse (hot
    reset paths); dropped slots no longer retain their elements. *)

val iter : ('a -> unit) -> 'a t -> unit
val fold_left : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
val exists : ('a -> bool) -> 'a t -> bool
val to_list : 'a t -> 'a list

val to_array : 'a t -> 'a array
(** The elements, oldest first, copied into an array of their exact
    length. *)

val filter_in_place : ('a -> bool) -> 'a t -> unit
(** Keep only the elements satisfying the predicate, preserving order;
    O(n), no reallocation. *)
