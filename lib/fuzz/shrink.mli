(** Greedy reproducer minimisation.

    Starting from a failing outcome, repeatedly tries strictly
    smaller variants of the input — fewer crash points, fewer edits,
    smaller genome — and keeps one exactly when it still fails with
    the {e same primary code}.  Every accepted step strictly decreases
    {!Input.size}, so shrinking terminates; the run budget bounds the
    rejected attempts in between.  Deterministic: candidates are
    generated and tried in a fixed order. *)

type result = {
  s_input : Input.t;  (** the minimised input *)
  s_outcome : Exec.outcome;  (** its (failing) outcome *)
  s_runs : int;  (** {!Exec.run} calls spent, the original excluded *)
}

val candidates : Input.t -> Input.t list
(** The one-step shrink candidates of an input, each strictly smaller,
    in the order {!shrink} tries them. *)

val shrink :
  ?cache:Exec.cache -> ?budget:int -> ?opt:bool -> Exec.outcome -> result
(** [budget] caps total {!Exec.run} calls (default 400); [opt] must
    match the flag the outcome was produced under so re-runs reproduce.
    The runs go through [cache] (a fresh one by default): a candidate
    that only drops crash points of a recorded base re-runs nothing of
    its crash-free probe.
    @raise Invalid_argument if the outcome is not a failure. *)
