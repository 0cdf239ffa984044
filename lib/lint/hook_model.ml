open Ido_ir
open Ido_util
open Ido_nvm
open Ido_runtime

type need = Initiated | Fenced
type req = Meta of string | Data

type micro =
  | Write of string
  | Write_data
  | Writeback of string
  | Writeback_data
  | Fence
  | Publish of { target : string; needs : need; requires : req list }
  | Check of { needs : need; requires : req list; code : string; what : string }
  | Grant_log

let placeable (s : Scheme.props) (hook : Ir.hook) =
  match hook with
  | Ir.Hregion _ -> s.region_cuts
  | Ir.Hfase_enter | Ir.Hfase_exit ->
      s.fase = Scheme.Lock_inferred || s.fase = Scheme.Durable_only
  | Ir.Hlock_acquired | Ir.Hlock_release _ -> s.lock_records
  | Ir.Htxn_begin | Ir.Htxn_commit -> s.fase = Scheme.Transaction
  | Ir.Hdurable_commit -> s.commit <> Scheme.No_commit
  | Ir.Hjustdo_store | Ir.Hundo_store | Ir.Hredo_store | Ir.Hpage_log ->
      s.grant = Some hook

(* ------------------------------------------------------------------ *)
(* The contract: what the recorded stores cannot say by themselves.    *)

(* The stores that publish in each hook, in store order; a cell's
   other stores are plain writes. *)
let publishes (scheme : Scheme.t) (hook : Ir.hook) =
  let pub target needs requires = Publish { target; needs; requires } in
  (* recovery_pc: everything the resumed region reads — intRF and the
     prior memory effects — must be fence-durable when it moves *)
  let pc = pub "pc" Fenced [ Meta "outlog"; Data ] in
  let head = pub "head" Initiated [ Meta "rec" ] in
  (* truncation: a log may only empty once the data it covered is
     durable *)
  let truncate cell = pub cell Fenced [ Data ] in
  match (scheme, hook) with
  | Scheme.Ido, (Ir.Hregion _ | Ir.Hlock_release _ | Ir.Hfase_exit) -> [ pc ]
  | Scheme.Justdo, Ir.Hjustdo_store -> [ pub "valid" Initiated [ Meta "entry" ] ]
  | Scheme.Justdo, (Ir.Hlock_acquired | Ir.Hlock_release _) ->
      [ pub "lockrec" Fenced [ Meta "intent" ] ]
  | Scheme.Atlas, _ | Scheme.Nvml, (Ir.Hfase_enter | Ir.Hundo_store) -> [ head ]
  | Scheme.Nvml, Ir.Hfase_exit -> [ truncate "head" ]
  | Scheme.Mnemosyne, Ir.Htxn_commit ->
      [ pub "status" Fenced [ Meta "redo" ]; truncate "status" ]
  | Scheme.Nvthreads, Ir.Hdurable_commit ->
      [ pub "pstatus" Fenced [ Meta "pages" ]; truncate "pstatus" ]
  | _ -> []

(* L303, the single-fence contract: the cells durable before an in-FASE
   unlock executes, so no two threads' lock records claim one lock. *)
let unlock_durable = function
  | Scheme.Ido -> [ "lockrec"; "pc" ]
  | Scheme.Atlas -> [ "head" ]
  | Scheme.Justdo -> [ "lockrec" ]
  | _ -> []

(* L302: the FASE's data is fence-durable by the exit hook's first log
   store. *)
let data_at_exit = function Scheme.Justdo | Scheme.Atlas | Scheme.Nvml -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)

let region ~at_release =
  Ir.Hregion { region_id = 0; live_in = []; out_regs = []; skippable = false; at_release }

(* The hooks the instrumenter places, one per model: a region boundary
   is modelled by whether it sits at a release, a release by whether it
   is outermost. *)
let hooks =
  Ir.
    [
      Hfase_enter; Hfase_exit; Hlock_acquired; Hlock_release { outermost = false };
      Hlock_release { outermost = true }; region ~at_release:false; region ~at_release:true;
      Hjustdo_store; Hundo_store; Hredo_store; Htxn_begin; Htxn_commit; Hpage_log;
      Hdurable_commit;
    ]

type setup = Hook of Ir.hook | Store

(* The protocol steps before [hook] that it depends on: a clwb of a
   clean line issues no write-back, so a fixture must first dirty what
   the hook writes back, and a store of a word's durable value writes
   nothing, so it must first arm what the hook clears.  [Store] is the
   FASE's program store. *)
let setup (props : Scheme.props) (hook : Ir.hook) =
  let enter = if props.fase = Scheme.Transaction then Ir.Htxn_begin else Ir.Hfase_enter in
  let grant = match props.grant with Some g -> [ Hook g ] | None -> [] in
  let boundary = if props.region_cuts then [ Hook (region ~at_release:false) ] else [] in
  match hook with
  | Ir.Hfase_enter | Ir.Htxn_begin | Ir.Hlock_acquired -> []
  | Ir.Hundo_store | Ir.Hredo_store | Ir.Hpage_log -> [ Hook enter ]
  | Ir.Hregion _ | Ir.Hjustdo_store -> [ Hook enter; Store ]
  | Ir.Hdurable_commit | Ir.Htxn_commit -> (Hook enter :: grant) @ [ Store ]
  | Ir.Hlock_release _ -> [ Hook enter; Hook Ir.Hlock_acquired; Store ] @ boundary
  | Ir.Hfase_exit ->
      (Hook enter :: grant) @ (Store :: boundary)
      @ if props.commit <> Scheme.No_commit then [ Hook Ir.Hdurable_commit ] else []

(* Run the setup on a scratch memory holding one log node and, past it,
   the program data, then [hook]'s protocol step, and turn the step's
   persist events into micro-ops.  A store becomes a write of its cell
   (the log module names it) or of the data, unless it left the word
   holding its durable value; a write-back, one write-back per cell
   stored in the line since its last one; a fence, a fence. *)
let raw_record ?fault scheme hook =
  let props = Scheme.props scheme in
  let p = Protocol.make ?fault scheme in
  let env =
    { Protocol.seq = 0; appended = (fun _ _ -> ()); coalesce = true; single_fence = true }
  in
  let pm = Pmem.create ~cache_lines:64 ~rng:(Rng.create 0) (1 lsl 12) in
  let heap = Ido_region.Region.create pm in
  let w = Pwriter.create pm Latency.default in
  let node =
    p.create w heap ~tid:0 { Protocol.nregs = 4; undo_cap = 16; redo_cap = 16; page_cap = 2 }
  in
  let pw = Page_log.page_words in
  let data = (Ido_region.Region.alloc heap (2 * pw) + pw - 1) / pw * pw in
  let line = data / Pmem.words_per_line and regs = Bytes.make 8 '\007' in
  let lines () =
    let l = Lineset.create () in
    Lineset.add l line;
    l
  in
  let step : Ir.hook -> unit = function
    | Ir.Hfase_enter -> p.fase_enter env w node ~stack_base:data ~sp:1
    | Ir.Hfase_exit -> p.fase_exit env w node ~last_line:line
    | Ir.Hlock_acquired -> p.lock_acquired env w node ~holder:3 ~epoch:1
    | Ir.Hlock_release { outermost } -> p.lock_release env w node ~holder:3 ~outermost
    | Ir.Hregion rh ->
        (* at a release, the inner-release case, which stores the pc *)
        p.boundary env w node ~regs ~out:[ 0 ] ~lines:(lines ()) ~epoch:1 ~pc:7
          ~at_release:rh.at_release ~outermost:false
    | Ir.Hjustdo_store ->
        p.justdo_store env w node ~last_line:line ~regs ~stack_base:data ~sp:1 ~pc:9
          ~addr:data ~value:5L
    | Ir.Hundo_store -> p.undo_store env w node ~addr:data
    | Ir.Hredo_store -> p.redo_store env w node ~addr:data ~value:5L
    | Ir.Htxn_begin -> p.txn_begin w node
    | Ir.Htxn_commit ->
        let written = Vec.create () in
        Vec.push written data;
        p.txn_commit w node ~written
    | Ir.Hpage_log -> ignore (p.page_log env w node ~page:(Page_log.page_of data))
    | Ir.Hdurable_commit -> p.durable_commit env w node ~lines:(lines ()) ~reopen:true
  in
  (* through the page copy under page copies, through the redo log in a
     transaction (the grant step made it), in place otherwise *)
  let store () =
    if p.page_copies then begin
      Pwriter.store w (Page_log.copy_word_addr node 0 ~off:0) 6L;
      Page_log.mark_dirty w node 0 ~off:0
    end
    else if props.fase <> Scheme.Transaction then Pwriter.store w data 6L
  in
  let recording = ref false and out = ref [] in
  let stored = ref [] (* addresses stored since their last write-back *)
  and last = ref None in
  let emit named cell x =
    if !recording then out := (if x >= data then cell else named (p.cell pm node x)) :: !out
  in
  let settle () =
    Option.iter
      (fun a ->
        last := None;
        if Pmem.load pm a <> Pmem.persisted pm a then begin
          if not (List.mem a !stored) then stored := !stored @ [ a ];
          emit (fun c -> Write c) Write_data a
        end)
      !last
  in
  Pmem.set_event_hook pm
    (Some
       (fun kind ->
         settle ();
         match kind with
         | Ido_obs.Obs.Store a -> last := Some a
         | Ido_obs.Obs.Flush a ->
             let line = a / Pmem.words_per_line in
             let here, rest =
               List.partition (fun x -> x / Pmem.words_per_line = line) !stored
             in
             stored := rest;
             List.iter (emit (fun c -> Writeback c) Writeback_data) here
         | Ido_obs.Obs.Fence _ -> if !recording then out := Fence :: !out
         | Ido_obs.Obs.Evict _ -> invalid_arg "Hook_model: the scratch memory evicted"
         | _ -> ()));
  List.iter (function Hook h -> step h | Store -> store ()) (setup props hook);
  settle ();
  recording := true;
  step hook;
  settle ();
  List.rev !out

(* Adjacent repeats are one micro-op (a record's several words, a
   cell's write-backs over two lines); then the contract turns the
   publishing writes into publishes, places the L302 check before the
   exit's first log store, and arms the grant. *)
let record ?fault scheme hook =
  let rec dedup = function
    | a :: (b :: _ as rest) when a = b -> dedup rest
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  let rec publish pubs = function
    | Write c :: rest -> (
        match List.partition (function Publish p -> p.target = c | _ -> false) pubs with
        | p :: others, mine -> p :: publish (others @ mine) rest
        | [], _ -> Write c :: publish pubs rest)
    | m :: rest -> m :: publish pubs rest
    | [] -> []
  in
  let check =
    Check { needs = Fenced; requires = [ Data ]; code = "L302"; what = "FASE data at exit" }
  in
  let rec check_first = function
    | (Write _ | Publish _) :: _ as rest -> check :: rest
    | m :: rest -> m :: check_first rest
    | [] -> [ check ]
  in
  let ops = publish (publishes scheme hook) (dedup (raw_record ?fault scheme hook)) in
  let ops = if hook = Ir.Hfase_exit && data_at_exit scheme then check_first ops else ops in
  if (Scheme.props scheme).grant = Some hook then ops @ [ Grant_log ] else ops

(* Recorded once per (scheme, fault), on first use, from any domain. *)
let cache = Hashtbl.create 16
let cache_lock = Mutex.create ()

let model ?fault scheme =
  let models =
    Mutex.protect cache_lock (fun () ->
        match Hashtbl.find_opt cache (scheme, fault) with
        | Some ms -> ms
        | None ->
            let placed = List.filter (placeable (Scheme.props scheme)) hooks in
            let ms = List.map (fun h -> (h, record ?fault scheme h)) placed in
            Hashtbl.add cache (scheme, fault) ms;
            ms)
  in
  fun (hook : Ir.hook) ->
    let key = match hook with Ir.Hregion rh -> region ~at_release:rh.at_release | h -> h in
    Option.value ~default:[] (List.assoc_opt key models)
