(** The fuzzer's on-disk corpus: one NDJSON file, byte-stable.

    Layout (one JSON object per line):
    + a header pinning the format version, the campaign seed and the
      entry count;
    + one line per entry — its kind, the complete {!Input.t} (via
      {!Input.json_fields}), the failure codes, the coverage digest
      and a short detail message.

    Every entry replays from its line alone ({!verify} runs
    {!Exec.run} on the decoded input), {!save} ∘ {!load} is the
    identity on bytes (the CI determinism job [cmp]s corpora from
    different [-j] levels). *)

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
(** The full file contents — the single source of byte stability.
    The benchmark serialises corpora through it. *)

val save : t -> string -> unit
(** @raise Sys_error when the path is unwritable (the CLI maps this
    to exit 2). *)

val load : string -> t
(** The reader of what {!save} writes.
    @raise Failure on a malformed file;
    @raise Sys_error when unreadable. *)

val verify : t -> (entry * string) list
(** Replay every entry (under the corpus's [c_opt], through one
    {!Exec.cache} shared by the entries) and return the mismatches:
    entries whose replay, through {!entry_of_outcome} with the same
    kind, differs from the entry in any field — codes, coverage digest
    or detail.  [[]] means the corpus is faithful.
    Exported as the corpus faithfulness oracle. *)
