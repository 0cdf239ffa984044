open Ido_ir
open Ido_runtime

type need = Initiated | Fenced
type req = Meta of string | Data

type micro =
  | Write of string
  | Writeback of string
  | Writeback_data
  | Fence
  | Publish of { target : string; needs : need; requires : req list }
  | Check of { needs : need; requires : req list; code : string; what : string }
  | Grant_log

let hook_name : Ir.hook -> string = function
  | Ir.Hregion { region_id; _ } -> Printf.sprintf "region#%d" region_id
  | Ir.Hfase_enter -> "fase_enter"
  | Ir.Hfase_exit -> "fase_exit"
  | Ir.Hlock_acquired -> "lock_acquired"
  | Ir.Hlock_release _ -> "lock_release"
  | Ir.Hjustdo_store -> "justdo_store"
  | Ir.Hundo_store -> "undo_store"
  | Ir.Hredo_store -> "redo_store"
  | Ir.Htxn_begin -> "txn_begin"
  | Ir.Htxn_commit -> "txn_commit"
  | Ir.Hpage_log -> "page_log"
  | Ir.Hdurable_commit -> "durable_commit"

(* The models below follow the micro-op order in which words become
   visible to the persistence domain, not the raw program-store order:
   a protocol that stores A then B and write-backs both before one
   fence is modelled as write/writeback A, then publish B — the
   simulator's [clwb] is synchronous, so "write-back issued before the
   publish store" is exactly the write-ahead invariant recovery relies
   on.  Cell names: see each scheme's runtime log module. *)

(* ------------------------------------------------------------------ *)
(* iDO: region boundaries (Ido_log), single-fence lock records.        *)

let ido_region (rh : Ir.region_hook) =
  [
    Write "outlog";
    Writeback "outlog";
    Writeback_data;
    Fence;
    (* recovery_pc armed at this boundary: everything the resumed
       region reads — intRF in the out-log and prior memory effects —
       must already be fence-durable. *)
    Publish { target = "pc"; needs = Fenced; requires = [ Meta "outlog"; Data ] };
    Writeback "pc";
  ]
  @ if rh.at_release then [] (* fence deferred to the release record *)
    else [ Fence ]

let ido_region_reordered (rh : Ir.region_hook) =
  (* PR 1's Pwriter.clwb_lines-class bug: data write-backs issued after
     the boundary fence, so the pc can persist ahead of the region's
     stores. *)
  [
    Write "outlog";
    Writeback "outlog";
    Fence;
    Writeback_data;
    Publish { target = "pc"; needs = Fenced; requires = [ Meta "outlog"; Data ] };
    Writeback "pc";
  ]
  @ if rh.at_release then [] else [ Fence ]

let ido_release ~outermost ~fenced =
  [ Write "lockrec"; Writeback "lockrec" ]
  @ (if outermost then
       (* pc := 0 declares the FASE complete: its outputs (fenced by
          the preceding at-release boundary) must already be durable. *)
       [
         Publish { target = "pc"; needs = Fenced; requires = [ Data; Meta "outlog" ] };
         Writeback "pc";
       ]
     else [])
  @ if fenced then [ Fence ] else []

(* ------------------------------------------------------------------ *)
(* JUSTDO (Justdo_log): per-store log entry; valid flag published
   last, one fence per entry (plus one flushing the previous store).   *)

let justdo_store ~early_publish =
  [ Writeback_data; Fence ]
  @ (if early_publish then
       (* PR 1's seeded bug: the valid flag becomes durable before the
          entry words, so a crash recovers a garbage (pc, addr, value)
          tuple.  The append claims the slot (dirtying it) and the
          publish fires before the entry's write-back is even issued. *)
       [
         Write "entry";
         Publish { target = "valid"; needs = Initiated; requires = [ Meta "entry" ] };
         Writeback "valid";
         Fence;
         Writeback "entry";
         Fence;
       ]
     else
       [
         Write "entry";
         Writeback "entry";
         Publish { target = "valid"; needs = Initiated; requires = [ Meta "entry" ] };
         Writeback "valid";
         Fence;
       ])
  @ [ Grant_log ]

let justdo_lock_record =
  (* intention store fenced, then the ownership word fenced: JUSTDO's
     two-fence lock protocol (acquire and release are symmetric). *)
  [
    Write "intent";
    Writeback "intent";
    Fence;
    Publish { target = "lockrec"; needs = Fenced; requires = [ Meta "intent" ] };
    Writeback "lockrec";
    Fence;
  ]

(* ------------------------------------------------------------------ *)
(* Undo ring (Atlas / NVML, Undo_log): record words written back
   before head/total publish the record.                               *)

let undo_append ~unfenced_variant ~fenced =
  (if unfenced_variant then
     (* PR 1's seeded bug: head/total stored before the record's
        write-backs are issued — an eviction of the counter line
        publishes an unwritten record. *)
     [
       Write "rec";
       Publish { target = "head"; needs = Initiated; requires = [ Meta "rec" ] };
       Writeback "rec";
       Writeback "head";
     ]
   else
     [
       Write "rec";
       Writeback "rec";
       Publish { target = "head"; needs = Initiated; requires = [ Meta "rec" ] };
       Writeback "head";
     ])
  @ if fenced then [ Fence ] else []

(* ------------------------------------------------------------------ *)
(* Mnemosyne (Redo_log): entries fenced, status := Committed fenced,
   apply, data fenced, status := Idle fenced.                          *)

let txn_commit ~drop_fence =
  [ Writeback "redo" ]
  @ (if drop_fence then [] else [ Fence ])
  @ [
      Publish { target = "status"; needs = Fenced; requires = [ Meta "redo" ] };
      Writeback "status";
      Fence;
      (* apply: the write set reaches its home locations *)
      Writeback_data;
      Fence;
      (* truncation: the log may only empty once the applied data is
         durable *)
      Publish { target = "status"; needs = Fenced; requires = [ Data ] };
      Writeback "status";
      Fence;
    ]

(* ------------------------------------------------------------------ *)
(* NVthreads (Page_log)                                                *)

let nvthreads_commit =
  [
    Writeback "pages";
    Publish { target = "pstatus"; needs = Initiated; requires = [ Meta "pages" ] };
    Writeback "pstatus";
    Fence;
    (* apply copies the buffered pages home; the stores stay volatile,
       but the committed log makes them recoverable — which is what the
       summarized data cell means, so absorb them as durable. *)
    Writeback_data;
    Fence;
  ]

(* ------------------------------------------------------------------ *)

let variants =
  [
    ( "early-publish-justdo",
      "JUSTDO log entry: valid flag fenced durable before the (pc, addr, \
       value) words are written" );
    ( "unfenced-undo-append",
      "undo ring append: head/total published before the record's \
       write-backs are issued" );
    ( "reorder-region-writeback",
      "iDO region boundary: tracked-line write-backs issued after the \
       boundary fence instead of before" );
    ( "drop-release-fence",
      "iDO lock release: record cleared and pc zeroed without the closing \
       fence" );
    ( "drop-commit-fence",
      "Mnemosyne commit: status set Committed without fencing the redo \
       entries first" );
  ]

let model ?variant scheme (hook : Ir.hook) =
  let v n = variant = Some n in
  match (scheme, hook) with
  (* --- iDO --- *)
  | Scheme.Ido, Ir.Hregion rh ->
      if v "reorder-region-writeback" then ido_region_reordered rh
      else ido_region rh
  | Scheme.Ido, Ir.Hlock_acquired ->
      (* stores + write-back only; the next boundary's fence persists
         the record (benign steal window) *)
      [ Write "lockrec"; Writeback "lockrec" ]
  | Scheme.Ido, Ir.Hlock_release { outermost } ->
      ido_release ~outermost ~fenced:(not (v "drop-release-fence"))
  | Scheme.Ido, Ir.Hfase_exit ->
      (* durable-region FASEs reach here with the pc still armed *)
      [
        Publish { target = "pc"; needs = Fenced; requires = [ Data; Meta "outlog" ] };
        Writeback "pc";
        Fence;
      ]
  | Scheme.Ido, Ir.Hfase_enter -> []
  (* --- JUSTDO --- *)
  | Scheme.Justdo, Ir.Hjustdo_store ->
      justdo_store ~early_publish:(v "early-publish-justdo")
  | Scheme.Justdo, (Ir.Hlock_acquired | Ir.Hlock_release _) -> justdo_lock_record
  | Scheme.Justdo, Ir.Hfase_exit ->
      [
        Writeback_data;
        Fence;
        Check
          {
            needs = Fenced;
            requires = [ Data ];
            code = "L302";
            what = "FASE data at exit";
          };
        Write "valid";
        Writeback "valid";
        Fence;
      ]
  | Scheme.Justdo, Ir.Hfase_enter -> []
  (* --- Atlas --- *)
  | Scheme.Atlas, Ir.Hfase_enter ->
      undo_append ~unfenced_variant:false ~fenced:false
  | Scheme.Atlas, Ir.Hundo_store ->
      undo_append ~unfenced_variant:(v "unfenced-undo-append") ~fenced:true
      @ [ Grant_log ]
  | Scheme.Atlas, (Ir.Hlock_acquired | Ir.Hlock_release _) ->
      undo_append ~unfenced_variant:false ~fenced:true
  | Scheme.Atlas, Ir.Hdurable_commit -> [ Writeback_data; Fence ]
  | Scheme.Atlas, Ir.Hfase_exit ->
      Check
        {
          needs = Fenced;
          requires = [ Data ];
          code = "L302";
          what = "FASE data at exit";
        }
      :: undo_append ~unfenced_variant:false ~fenced:false
  (* --- Mnemosyne --- *)
  | Scheme.Mnemosyne, Ir.Htxn_begin -> [ Write "status" ]
  | Scheme.Mnemosyne, Ir.Hredo_store -> [ Write "redo"; Grant_log ]
  | Scheme.Mnemosyne, Ir.Htxn_commit ->
      txn_commit ~drop_fence:(v "drop-commit-fence")
  (* --- NVML --- *)
  | Scheme.Nvml, Ir.Hfase_enter ->
      undo_append ~unfenced_variant:false ~fenced:false
  | Scheme.Nvml, Ir.Hundo_store ->
      undo_append ~unfenced_variant:(v "unfenced-undo-append") ~fenced:true
      @ [ Grant_log ]
  | Scheme.Nvml, Ir.Hdurable_commit -> [ Writeback_data; Fence ]
  | Scheme.Nvml, Ir.Hfase_exit ->
      [
        Check
          {
            needs = Fenced;
            requires = [ Data ];
            code = "L302";
            what = "FASE data at exit";
          };
        (* Undo_log.reset: head := 0 truncates the log *)
        Publish { target = "head"; needs = Fenced; requires = [ Data ] };
        Writeback "head";
        Fence;
      ]
  (* --- NVthreads --- *)
  | Scheme.Nvthreads, Ir.Hfase_enter -> [ Write "pstatus"; Writeback "pstatus"; Fence ]
  | Scheme.Nvthreads, Ir.Hpage_log -> [ Write "pages"; Grant_log ]
  | Scheme.Nvthreads, Ir.Hdurable_commit -> nvthreads_commit
  | Scheme.Nvthreads, Ir.Hfase_exit -> []
  | _ -> []
