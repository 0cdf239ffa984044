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

let failure_atomic = function Origin -> false | _ -> true
let stack_in_pmem = function Ido | Justdo -> true | _ -> false

let table2_header =
  [
    "System";
    "Failure-atomic region semantics";
    "Recovery";
    "Logging granularity";
    "Dep tracking?";
    "Transient caches?";
  ]

let table2_row = function
  | Ido ->
      [ "iDO Logging"; "Lock-inferred FASE"; "Resumption"; "Idempotent Region"; "No"; "Yes" ]
  | Atlas -> [ "Atlas"; "Lock-inferred FASE"; "UNDO"; "Store"; "Yes"; "Yes" ]
  | Mnemosyne ->
      [ "Mnemosyne"; "C++ Transactions"; "REDO"; "Store"; "No"; "Yes" ]
  | Nvthreads -> [ "NVThreads"; "Lock-inferred FASE"; "REDO"; "Page"; "Yes"; "Yes" ]
  | Justdo -> [ "JUSTDO"; "Lock-inferred FASE"; "Resumption"; "Store"; "No"; "No" ]
  | Nvml -> [ "NVML"; "Programmer Delineated"; "UNDO"; "Object"; "No"; "Yes" ]
  | Origin -> [ "Origin"; "none (crash-vulnerable)"; "-"; "-"; "No"; "Yes" ]

let pp fmt t = Format.pp_print_string fmt (name t)
