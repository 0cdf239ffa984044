type t = Ido | Atlas | Mnemosyne | Justdo | Nvml | Nvthreads | Origin

let all = [ Ido; Atlas; Mnemosyne; Justdo; Nvml; Nvthreads; Origin ]

let name = function
  | Ido -> "ido"
  | Atlas -> "atlas"
  | Mnemosyne -> "mnemosyne"
  | Justdo -> "justdo"
  | Nvml -> "nvml"
  | Nvthreads -> "nvthreads"
  | Origin -> "origin"

let of_name s =
  List.find_opt (fun t -> name t = String.lowercase_ascii s) all

type fase = Lock_inferred | Durable_only | Transaction | No_fase
type commit = No_commit | At_fase_end | At_every_release

type props = {
  fase : fase;
  lock_records : bool;
  commit : commit;
  grant : Ido_ir.Ir.hook option;
  grant_elidable : bool;
  grant_hoistable : bool;
  region_cuts : bool;
  stack_in_pmem : bool;
  failure_atomic : bool;
  workloads : string list option;
  table2 : string list;
}

(* The one table.  Every field not named in a row takes the value of
   [origin], which instruments nothing. *)
let origin =
  {
    fase = No_fase;
    lock_records = false;
    commit = No_commit;
    grant = None;
    grant_elidable = false;
    grant_hoistable = false;
    region_cuts = false;
    stack_in_pmem = false;
    failure_atomic = false;
    workloads = None;
    table2 = [ "Origin"; "none (crash-vulnerable)"; "-"; "-"; "No"; "Yes" ];
  }

let ido =
  {
    origin with
    fase = Lock_inferred;
    lock_records = true;
    region_cuts = true;
    stack_in_pmem = true;
    failure_atomic = true;
    table2 =
      [ "iDO Logging"; "Lock-inferred FASE"; "Resumption"; "Idempotent Region"; "No"; "Yes" ];
  }

let atlas =
  {
    origin with
    fase = Lock_inferred;
    lock_records = true;
    commit = At_fase_end;
    grant = Some Ido_ir.Ir.Hundo_store;
    grant_elidable = true;
    grant_hoistable = true;
    failure_atomic = true;
    table2 = [ "Atlas"; "Lock-inferred FASE"; "UNDO"; "Store"; "Yes"; "Yes" ];
  }

let mnemosyne =
  {
    origin with
    fase = Transaction;
    grant = Some Ido_ir.Ir.Hredo_store;
    grant_elidable = true;
    failure_atomic = true;
    table2 = [ "Mnemosyne"; "C++ Transactions"; "REDO"; "Store"; "No"; "Yes" ];
  }

let justdo =
  {
    origin with
    fase = Lock_inferred;
    lock_records = true;
    grant = Some Ido_ir.Ir.Hjustdo_store;
    stack_in_pmem = true;
    failure_atomic = true;
    table2 = [ "JUSTDO"; "Lock-inferred FASE"; "Resumption"; "Store"; "No"; "No" ];
  }

let nvml =
  {
    origin with
    fase = Durable_only;
    commit = At_fase_end;
    grant = Some Ido_ir.Ir.Hundo_store;
    grant_elidable = true;
    grant_hoistable = true;
    failure_atomic = true;
    workloads = Some [ "objstore" ];
    table2 = [ "NVML"; "Programmer Delineated"; "UNDO"; "Object"; "No"; "Yes" ];
  }

let nvthreads =
  {
    origin with
    fase = Lock_inferred;
    commit = At_every_release;
    grant = Some Ido_ir.Ir.Hpage_log;
    grant_elidable = true;
    grant_hoistable = true;
    failure_atomic = true;
    table2 = [ "NVThreads"; "Lock-inferred FASE"; "REDO"; "Page"; "Yes"; "Yes" ];
  }

let props = function
  | Ido -> ido
  | Atlas -> atlas
  | Mnemosyne -> mnemosyne
  | Justdo -> justdo
  | Nvml -> nvml
  | Nvthreads -> nvthreads
  | Origin -> origin

let table2_header =
  [
    "System";
    "Failure-atomic region semantics";
    "Recovery";
    "Logging granularity";
    "Dep tracking?";
    "Transient caches?";
  ]
