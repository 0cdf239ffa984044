(** The forward worklist solver every block-level forward analysis
    runs on: {!Reaching}, and the linter's protection, must-captured
    and may-dirty flows. *)

open Ido_ir

val forward :
  Ir.func ->
  entry:'a ->
  transfer:(int -> 'a -> 'a) ->
  join:('a -> 'a -> 'a) ->
  equal:('a -> 'a -> bool) ->
  'a option array
(** [forward f ~entry ~transfer ~join ~equal] iterates a FIFO worklist
    from block 0, whose entry state is [entry], to a fixpoint:
    [transfer b s] is block [b]'s exit state from entry state [s], and
    [join prev incoming] merges a predecessor's exit state into a
    block's entry state.  Returns each block's entry state; [None] for
    blocks never reached from the entry. *)
