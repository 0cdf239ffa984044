type request_profile = { key_range : int }

type t = {
  name : string;
  program : Ido_ir.Ir.program Lazy.t;
  oracle : Oracle.impl;
  request : request_profile;
  single_threaded : bool;
}

(* One entry per benchmark. *)
let all =
  [
    {
      name = "stack";
      program = lazy (Stack.program ());
      oracle = Oracle.stack;
      request = { key_range = 1024 };
      single_threaded = false;
    };
    {
      name = "queue";
      program = lazy (Queue.program ());
      oracle = Oracle.queue;
      request = { key_range = 1024 };
      single_threaded = false;
    };
    {
      name = "olist";
      program = lazy (Olist.program ());
      oracle = Oracle.olist;
      request = { key_range = 256 };
      single_threaded = false;
    };
    {
      name = "olistrm";
      program = lazy (Olist.program ~remove_pct:20 ());
      oracle = Oracle.olist;
      request = { key_range = 256 };
      single_threaded = false;
    };
    {
      name = "hmap";
      program = lazy (Hmap.program ());
      oracle = Oracle.hmap;
      request = { key_range = 2048 };
      single_threaded = false;
    };
    {
      name = "kvcache50";
      program = lazy (Kvcache.program ~insert_pct:50 ());
      oracle = Oracle.kvcache;
      request = { key_range = 16384 };
      single_threaded = false;
    };
    {
      name = "kvcache10";
      program = lazy (Kvcache.program ~insert_pct:10 ());
      oracle = Oracle.kvcache;
      request = { key_range = 16384 };
      single_threaded = false;
    };
    {
      name = "objstore";
      program = lazy (Objstore.program ());
      oracle = Oracle.objstore;
      request = { key_range = 10_000 };
      single_threaded = true;
    };
    {
      name = "mlog";
      program = lazy (Mlog.program ());
      oracle = Oracle.mlog;
      request = { key_range = 1024 };
      single_threaded = false;
    };
  ]

let names = List.map (fun w -> w.name) all
let find name = List.find_opt (fun w -> w.name = name) all

let get name =
  match find name with
  | Some w -> w
  | None ->
      invalid_arg
        (Printf.sprintf "Workload.get: unknown workload %s (valid: %s)" name
           (String.concat ", " names))

(* Registry programs are shared lazies and callers run on domain
   pools; a concurrent [Lazy.force] from two domains raises
   [CamlinternalLazy.Undefined], so every force is serialised. *)
let force_mutex = Mutex.create ()

let program w =
  Mutex.lock force_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock force_mutex)
    (fun () -> Lazy.force w.program)

let named name = program (get name)

let check_threads w threads =
  if w.single_threaded && threads > 1 then
    invalid_arg
      (Printf.sprintf "threads must be 1 for the single-threaded %s (got %d)"
         w.name threads)
