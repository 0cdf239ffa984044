(** O102 — write-free FASE elision.  When nothing in a function can
    dirty in-FASE program data, every hook is deleted and the bare
    lock structure carries the contract.  Not applied to transactions
    (Mnemosyne), whose txn hooks replaced the lock instructions. *)

open Ido_ir
open Ido_runtime

val run : Scheme.t -> string -> Ir.func -> Ir.func * Rewrite.t list
