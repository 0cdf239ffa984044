(** The fuzzer's on-disk corpus: one NDJSON file, byte-stable.

    Layout (one JSON object per line):
    + a header pinning the format version, the campaign seed and the
      entry count;
    + one line per entry — its kind, the complete {!Input.t} (via
      {!Input.json_fields}), the failure codes, the coverage digest
      and a short detail message.

    Every entry replays from its line alone ({!replay_entry} is just
    {!Exec.run} of the decoded input), {!save} ∘ {!load} is the
    identity on bytes (the CI determinism job [cmp]s corpora from
    different [-j] levels), and {!to_mutants} feeds the surviving
    workload-base findings back into the PR-3 mutation corpus. *)

type kind =
  | Seed  (** campaign seed input, kept for provenance *)
  | Survivor  (** clean input that contributed novel coverage *)
  | Finding  (** failing input, already shrunk *)

type entry = {
  e_kind : kind;
  e_input : Input.t;
  e_codes : string list;  (** failure codes; [[]] for non-findings *)
  e_digest : string;  (** {!Cov.digest} of the input's features *)
  e_detail : string;  (** first diagnostic/error; [""] for non-findings *)
}

type t = {
  c_seed : int;
  c_opt : bool;
      (** written by a campaign over the optimized pipeline: the
          header carries ["opt":true] (only then), and replays run the
          optimizer too *)
  c_entries : entry list;
}

val entry_of_outcome : kind -> Exec.outcome -> entry

val to_ndjson : t -> string
(** The full file contents — the single source of byte stability. *)

val save : t -> string -> unit
(** @raise Sys_error when the path is unwritable (the CLI maps this
    to exit 2). *)

val load : string -> t
(** @raise Failure on a malformed file;
    @raise Sys_error when unreadable. *)

val replay_entry : ?opt:bool -> entry -> Exec.outcome
(** Re-run the entry's input; [opt] must be the corpus's [c_opt]. *)

val verify : t -> (entry * string) list
(** Replay every entry (under the corpus's [c_opt], through one
    {!Exec.cache} shared by the entries) and return the mismatches:
    findings whose primary code changed or stopped failing,
    non-findings that now fail.  [[]] means the corpus is faithful. *)

val to_mutants : t -> Ido_lint.Mutate.t list
(** The workload-base findings that carry seeded edits or a variant,
    as mutation-corpus entries (named ["fuzz-<n>-<code>"], expectation
    = the finding's primary code).  Random-genome findings have no
    registry workload and are skipped. *)
