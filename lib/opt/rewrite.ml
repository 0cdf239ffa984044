open Ido_ir
open Ido_analysis

type t = { code : string; func : string; pos : Ir.pos; detail : string }

let v ~code ~func ~pos detail = { code; func; pos; detail }

let vf ~code ~func ~pos fmt =
  Printf.ksprintf (fun detail -> { code; func; pos; detail }) fmt

let to_diag r = Diag.v ~pos:r.pos ~func:r.func ~code:r.code r.detail
let render r = Diag.render (to_diag r)

let compare a b = Diag.compare (to_diag a) (to_diag b)

let codes =
  [
    ( "O101",
      "redundant durable-commit elided: tracked lines are clean on every \
       incoming path" );
    ( "O102",
      "write-free FASE: every hook elided, the bare lock structure carries \
       the contract" );
    ( "O103",
      "duplicate log capture elided: the cell is already captured in this \
       window" );
    ("O104", "loop-invariant log capture hoisted to the loop preheader");
  ]

(* The obs-rollup fields each rewrite is allowed to shrink; everything
   outside the union of the applied rewrites' classes must reconcile
   exactly (Optrun).  Evictions are exempt globally — they are an
   emergent cache artifact that can drift either way when clwbs
   disappear. *)
let delta_class = function
  | "O101" -> [ "stores"; "flushes"; "fences" ]
  | "O102" ->
      [
        "stores";
        "flushes";
        "fences";
        "log_appends";
        "log_bytes";
        "boundaries";
        "elided_boundaries";
        "fase_enters";
        "fase_exits";
      ]
  | "O103" | "O104" ->
      [ "stores"; "flushes"; "fences"; "log_appends"; "log_bytes" ]
  | _ -> []
