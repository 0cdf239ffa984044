(** Redis-like single-threaded object store (Sec. V-A).

    Redis's relevant properties for Fig. 6: a single server thread,
    programmer-delineated durable regions (the paper uses annotated
    FASEs because Redis takes no locks), long FASEs with relatively few
    persistent writes, a read path that performs no persistent writes
    at all, and search time that grows with database size.  The
    substitute is a chained hash table of multi-word objects with a
    fixed bucket count, driven by an 80% get / 20% put client whose
    key distribution is power-law-skewed (P(key < x) ∝ √x, matching
    lru_test's hot-key behaviour).

    Object payloads are 8 words holding [key + j] in word [j], so any
    torn or lost write is detectable ([check] and the get path both
    verify the checksum). *)

open Ido_ir

val program :
  ?buckets:int -> ?key_range:int -> ?prefill:int -> unit -> Ir.program
(** [init] inserts objects for the [prefill] hottest keys (default
    [key_range/10]); [worker(nops)] runs the 80/20 mix; [check]
    verifies every object's checksum and the global count.  Defaults:
    1024 buckets, 10_000 keys. *)
