(* serve-mix: an in-process server on 127.0.0.1:0 with its own store
   directory, driven in a closed loop by two clients over a seeded
   request mix.  The only workload where serve, http and the cache
   layers do most of the work: its median is the response-memo hit
   path, which never reaches the simulator, and its misses are the
   `grophecy project` path. *)

open Common
module Config = Gpp_engine.Config
module Pipeline = Gpp_engine.Pipeline
module Serve = Gpp_serve.Serve
module Memo = Gpp_cache.Memo
module Control = Gpp_cache.Control

type kind = Hot | Reproject | Fresh | Healthz | Malformed | Coalesced

let kind_name = function
  | Hot -> "hit"
  | Reproject -> "reproject"
  | Fresh -> "miss"
  | Healthz -> "healthz"
  | Malformed -> "malformed"
  | Coalesced -> "coalesced"

(* [reference] renders the reply's expected body in-process, with the
   memo off, through the printers the CLI uses. *)
type request = {
  kind : kind;
  meth : string;
  target : string;
  body : string;
  expect : int;
  reference : (unit -> string) option;
}

let describe r = Printf.sprintf "%s %s %s" r.meth r.target r.body

let pct_encode s =
  String.concat ""
    (List.map
       (fun c ->
         match c with
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '-' | '_' | '.' | '~' | ',' -> String.make 1 c
         | c -> Printf.sprintf "%%%02X" (Char.code c))
       (List.of_seq (String.to_seq s)))

let config = { Config.default with Config.jobs = 1; listen = "127.0.0.1:0" }

(* What `grophecy project` prints, with the server's defaults for the
   fields a request leaves out: lint on, one iteration. *)
let reference_project ?seed ?iterations ~workload ~machine () =
  let c =
    {
      config with
      Config.lint = true;
      machine = machine_of machine;
      seed = Option.value seed ~default:config.Config.seed;
      iterations = Some (Option.value iterations ~default:1);
    }
  in
  let session = Pipeline.session_of c in
  match Pipeline.run ~through:Gpp_engine.Stage.Project ~session c ~workload with
  | Error e -> failwith (Gpp_engine.Error.message e)
  | Ok state ->
      let projection = Pipeline.projection_exn state in
      Format.asprintf "%a@." Gpp_core.Projection.pp projection
      ^ Format.asprintf "%a@." Gpp_dataflow.Analyzer.pp_plan projection.Gpp_core.Projection.plan

let reference_batch ~machines ~workloads () =
  Gpp_engine.Batch.to_tsv
    (Gpp_engine.Batch.run ~machines:(List.map machine_of machines) config ~workloads)

let project ?seed ?iterations kind ~workload ~machine =
  let field k v = Printf.sprintf "%S: %s" k v in
  let fields =
    [ field "workload" (Printf.sprintf "%S" workload); field "machine" (Printf.sprintf "%S" machine) ]
    @ (match seed with Some s -> [ field "seed" (Printf.sprintf "\"%Ld\"" s) ] | None -> [])
    @ match iterations with Some n -> [ field "iterations" (string_of_int n) ] | None -> []
  in
  {
    kind;
    meth = "POST";
    target = "/project";
    body = "{" ^ String.concat ", " fields ^ "}";
    expect = 200;
    reference = Some (reference_project ?seed ?iterations ~workload ~machine);
  }

let batch ~machines ~workloads =
  {
    kind = Hot;
    meth = "GET";
    target =
      Printf.sprintf "/batch?machines=%s&workloads=%s" (pct_encode (String.concat "," machines))
        (pct_encode (String.concat "," workloads));
    body = "";
    expect = 200;
    reference = Some (reference_batch ~machines ~workloads);
  }

(* The hot set: cheap requests every round repeats, answered from the
   serve.responses memo once warm. *)
let hot_projects =
  [
    ("hotspot/64 x 64", "argonne");
    ("hotspot/64 x 64", "gt200");
    ("hotspot/64 x 64", "hopper");
    ("hotspot/64 x 64", "kepler");
    ("vecadd/16M", "gt200");
    ("hotspot/512 x 512", "argonne");
  ]

let hot_batches =
  [
    ([ "argonne"; "gt200" ], [ "hotspot/64 x 64" ]);
    ([ "gt200" ], [ "vecadd/16M"; "hotspot/64 x 64" ]);
  ]

let hot =
  List.map (fun (workload, machine) -> project Hot ~workload ~machine) hot_projects
  @ List.map (fun (machines, workloads) -> batch ~machines ~workloads) hot_batches

(* Full misses: a (workload, machine) with a seed no earlier request
   used, so the simulator runs.  Every round misses on each target
   once (two per client, one shared), so rounds cost the same. *)
let fresh_targets =
  [
    ("hotspot/512 x 512", "gt200");
    ("hotspot/512 x 512", "kepler");
    ("vecadd/16M", "argonne");
    ("hotspot/512 x 512", "hopper");
    ("vecadd/16M", "gt200");
  ]

let malformed =
  let bad target body = { kind = Malformed; meth = "POST"; target; body; expect = 400; reference = None } in
  [
    bad "/project" "{\"workload\": 7}";
    bad "/project" "{\"workload\": \"hotspot/64 x 64\"";
    bad "/project" "{\"workload\": \"nosuch/1\"}";
    bad "/project" "{\"workload\": \"hotspot/64 x 64\", \"machine\": \"nosuch\"}";
    {
      kind = Malformed;
      meth = "GET";
      target = "/project?workload=" ^ pct_encode "hotspot/64 x 64" ^ "&iterations=many";
      body = "";
      expect = 400;
      reference = None;
    };
  ]

let healthz =
  { kind = Healthz; meth = "GET"; target = "/healthz"; body = ""; expect = 200; reference = None }

(* Per client and round, in three phases that both clients finish
   before either starts the next: 72 hits, 10 health checks and 3
   malformed requests, shuffled; then 12 re-projections and 2 full
   misses, shuffled; then one full miss both clients send at once.
   Keeping hits apart from misses keeps the median on the hit path:
   interleaved, a hit mostly waited for the other client's simulation
   to release the runtime lock, so the median tracked the simulator and
   moved with host speed more than anything else measured. *)
let hot_repeats = 9
let reprojects = 12
let fresh_per_client = 2
let healthz_per_client = 10
let malformed_per_client = 3

(* Request seeds and iteration counts are unique per (round, client,
   slot), so misses stay misses however many rounds a run makes. *)
let fresh_seed ~seed ~round ~client ~slot =
  Int64.(add (mul seed 1_000_003L) (of_int ((round * 16) + (client * 8) + slot + 1)))

let client_requests ~seed ~round ~client =
  let st = Random.State.make [| Int64.to_int seed; round; client |] in
  let n_hot = List.length hot_projects in
  let reproject slot =
    let workload, machine = List.nth hot_projects ((slot + client) mod n_hot) in
    project Reproject ~workload ~machine ~iterations:(2 + (round * 2 * reprojects) + (client * reprojects) + slot)
  in
  let fresh slot =
    let workload, machine =
      List.nth fresh_targets ((round + (client * fresh_per_client) + slot) mod List.length fresh_targets)
    in
    project Fresh ~workload ~machine ~seed:(fresh_seed ~seed ~round ~client ~slot)
  in
  let shuffle reqs =
    let tagged = List.map (fun r -> (Random.State.bits st, r)) reqs in
    List.map snd (List.stable_sort (fun (a, _) (b, _) -> compare a b) tagged)
  in
  let fast =
    shuffle
      (List.concat (List.init hot_repeats (fun _ -> hot))
      @ List.init healthz_per_client (fun _ -> healthz)
      @ List.init malformed_per_client (fun i ->
            List.nth malformed
              (((round * 2 * malformed_per_client) + (client * malformed_per_client) + i)
              mod List.length malformed)))
  in
  (fast, shuffle (List.init reprojects reproject @ List.init fresh_per_client fresh))

let coalesced_request ~seed ~round =
  let workload, machine =
    List.nth fresh_targets ((round + (2 * fresh_per_client)) mod List.length fresh_targets)
  in
  project Coalesced ~workload ~machine ~seed:(fresh_seed ~seed ~round ~client:2 ~slot:0)

(* --- references -------------------------------------------------------- *)

(* The hot set and every miss of the first round, keyed by request:
   their replies must equal these bytes on every run. *)
let references ~seed =
  let round0 =
    List.concat_map (fun client -> snd (client_requests ~seed ~round:0 ~client)) [ 0; 1 ]
    @ [ coalesced_request ~seed ~round:0 ]
  in
  let refs = Hashtbl.create 64 in
  Control.without_cache (fun () ->
      List.iter
        (fun r ->
          match r.reference with
          | Some render when not (Hashtbl.mem refs (describe r)) -> Hashtbl.replace refs (describe r) (render ())
          | _ -> ())
        (hot @ round0));
  refs

(* --- scratch store directories inside the working tree ---------------- *)

let scratch_root = ".perfbench"

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* --- the checked client ------------------------------------------------- *)

type sample = {
  req : request;
  latency : float;
  status : int;
  body : string;
  outcome : (unit, string) result;  (** This reply's output check. *)
}

(* A reply with a reference must equal it; any other reply must equal
   the first reply to the same request (health checks carry an uptime
   and are exempt). *)
type state = { mu : Mutex.t; refs : (string, string) Hashtbl.t; first : (string, string) Hashtbl.t }

let verify st (s : sample) =
  if s.status <> s.req.expect then
    Error
      (Printf.sprintf "status %d, expected %d: %s" s.status s.req.expect
         (match lines s.body with l :: _ -> l | [] -> ""))
  else
    match s.req.kind with
    | Healthz ->
        let prefix = "{\"status\":\"ok\"," in
        if String.starts_with ~prefix s.body then Ok ()
        else Error (first_difference ~expected:prefix ~actual:s.body)
    | Malformed when not (String.starts_with ~prefix:"{\"error\":" s.body) ->
        Error (first_difference ~expected:"{\"error\": ...}" ~actual:s.body)
    | _ -> (
        let key = describe s.req in
        match Hashtbl.find_opt st.refs key with
        | Some expected -> compare_text ~expected ~actual:s.body
        | None -> (
            match Hashtbl.find_opt st.first key with
            | None ->
                Hashtbl.replace st.first key s.body;
                Ok ()
            | Some expected -> compare_text ~expected ~actual:s.body))

(* Each client keeps one keep-alive connection for the whole run and
   writes its requests on it itself, so a request costs the server's
   handling of it, not a connect, an accept and a new handler thread. *)
type client = { server : Serve.t; mutable fd : Unix.file_descr option }

let disconnect c =
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) c.fd;
  c.fd <- None

let connection c =
  match c.fd with
  | Some fd -> fd
  | None ->
      let port = Option.get (Serve.port c.server) in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         Unix.setsockopt fd Unix.TCP_NODELAY true;
         Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
       with e ->
         Unix.close fd;
         raise e);
      c.fd <- Some fd;
      fd

let connect server =
  let c = { server; fd = None } in
  ignore (connection c);
  c

let rec write_all fd b pos =
  if pos < Bytes.length b then
    match Unix.write fd b pos (Bytes.length b - pos) with
    | n -> write_all fd b (pos + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b pos

(* Index just past the blank line that ends a response head. *)
let head_end s =
  let rec go i =
    if i + 4 > String.length s then None
    else if String.sub s i 4 = "\r\n\r\n" then Some (i + 4)
    else go (i + 1)
  in
  go 0

(* One request and its (status, body), read by Content-Length. *)
let exchange fd req =
  let head =
    Printf.sprintf "%s %s HTTP/1.1\r\nHost: perfbench\r\n%s\r\n" req.meth req.target
      (if req.body = "" then "" else Printf.sprintf "Content-Length: %d\r\n" (String.length req.body))
  in
  write_all fd (Bytes.of_string (head ^ req.body)) 0;
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec read_more () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> failwith "connection closed"
    | n -> Buffer.add_subbytes buf chunk 0 n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_more ()
  in
  let rec await_head () =
    match head_end (Buffer.contents buf) with
    | Some e -> e
    | None ->
        read_more ();
        await_head ()
  in
  let e = await_head () in
  let head = List.map String.trim (String.split_on_char '\n' (Buffer.sub buf 0 e)) in
  let status =
    match head with
    | line :: _ -> (
        match String.split_on_char ' ' line with
        | _ :: code :: _ when int_of_string_opt code <> None -> int_of_string code
        | _ -> failwith ("malformed status line " ^ line))
    | [] -> failwith "empty response head"
  in
  let length =
    List.find_map
      (fun line ->
        match String.index_opt line ':' with
        | Some i when String.lowercase_ascii (String.sub line 0 i) = "content-length" ->
            int_of_string_opt (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
        | _ -> None)
      head
  in
  let length = match length with Some n -> n | None -> failwith "response without Content-Length" in
  while Buffer.length buf < e + length do
    read_more ()
  done;
  (status, Buffer.sub buf e length)

(* A failed exchange drops the connection; the next request opens a
   new one. *)
let send_raw c req =
  let result, latency =
    timed (fun () ->
        try Ok (exchange (connection c) req)
        with e ->
          disconnect c;
          Error (Printexc.to_string e))
  in
  let status, body = match result with Ok r -> r | Error msg -> (0, msg) in
  { req; latency; status; body; outcome = Ok () }

let send st c req =
  let s = send_raw c req in
  { s with outcome = Mutex.protect st.mu (fun () -> verify st s) }

(* Outputs must repeat across runs of one seed: the first run whose ops
   all pass stores a digest per op of its first round, later runs
   compare against it. *)
let digest_of (s : sample) =
  digest
    (Printf.sprintf "%s\n%d\n%s" (describe s.req) s.status
       (if s.req.kind = Healthz then "" else s.body))

(* Keyed by the first round's requests too, so a changed request mix
   starts a fresh record instead of failing against a stale one. *)
let digests_path seed =
  let plan =
    List.concat_map
      (fun client ->
        let fast, slow = client_requests ~seed ~round:0 ~client in
        fast @ slow)
      [ 0; 1 ]
    @ [ coalesced_request ~seed ~round:0 ]
  in
  Filename.concat scratch_root
    (Printf.sprintf "serve-mix-%Ld-%s.digests" seed
       (String.sub (digest (String.concat "\n" (List.map describe plan))) 0 12))

let repeat_check ~stored samples =
  List.mapi
    (fun i (s : sample) ->
      match (s.outcome, stored) with
      | Error _, _ | Ok (), None -> s
      | Ok (), Some d ->
          if i < Array.length d && d.(i) = digest_of s then s
          else { s with outcome = Error "reply differs from an earlier run of this seed" })
    samples

(* Both clients wait at a latch between phases; before the shared
   miss, that makes it reach the server twice while the first copy is
   computing.  One latch per phase boundary and round. *)
type latch = { lm : Mutex.t; lc : Condition.t; mutable arrived : int }

let latch () = { lm = Mutex.create (); lc = Condition.create (); arrived = 0 }

let await l =
  Mutex.protect l.lm (fun () ->
      l.arrived <- l.arrived + 1;
      if l.arrived = 2 then Condition.broadcast l.lc
      else
        while l.arrived < 2 do
          Condition.wait l.lc l.lm
        done)

(* --- /metrics and span snapshots ---------------------------------------- *)

let scrape server =
  match Serve.request server "/metrics" with
  | Ok (200, _, body) ->
      List.filter_map
        (fun line ->
          match String.split_on_char ' ' line with
          | [ name; v ] -> Option.map (fun v -> (name, float_of_int v)) (int_of_string_opt v)
          | _ -> None)
        (lines body)
  | _ -> []

let spans () = List.map (fun (a : Obs.agg) -> (a.name, a.total_us /. 1000.)) (Obs.aggregates ())

let delta before after name =
  let get l = Option.value (List.assoc_opt name l) ~default:0. in
  get after -. get before

let run ~seed ~seconds ~trace =
  let st = { mu = Mutex.create (); refs = references ~seed; first = Hashtbl.create 1024 } in
  let root = Filename.concat scratch_root (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  (try Sys.mkdir scratch_root 0o755 with Sys_error _ -> ());
  rm_rf root;
  let check = new_check () in
  let stored =
    match lines (read_file (digests_path seed)) with
    | exception Sys_error _ -> None
    | ds -> Some (Array.of_list ds)
  in
  (* One complete set-up: empty memo tables and store, server start,
     both clients connected, hot set warmed and checked.  The last
     one's server is measured. *)
  let n = ref 0 in
  let setup () =
    incr n;
    Memo.clear_all ();
    Obs.reset ();
    Hashtbl.reset st.first;
    Control.set_dir (Filename.concat root (string_of_int !n));
    let server =
      match Serve.start config with
      | Ok s -> s
      | Error e -> failwith (Gpp_engine.Error.message e)
    in
    let clients = Array.init 2 (fun _ -> connect server) in
    let warm = List.map (send st clients.(0)) hot in
    List.iter (fun s -> record check ~what:("hot set " ^ describe s.req) s.outcome) warm;
    (server, clients, warm)
  in
  let stop (server, clients, _) =
    Array.iter disconnect clients;
    Serve.stop server
  in
  let setup_before, ((server, clients, warm) as measured_server) = repeated_setup ~discard:stop setup in
  let first_round = ref [] in
  let round ~index ~traced =
    let before = if traced then Some (scrape server, spans ()) else None in
    let after_fast = latch () and after_slow = latch () in
    let shared = coalesced_request ~seed ~round:index in
    let results = Array.make 2 [] in
    let client i () =
      let c = clients.(i) in
      let fast, slow = client_requests ~seed ~round:index ~client:i in
      let fast = List.map (send st c) fast in
      await after_fast;
      let slow = List.map (send st c) slow in
      await after_slow;
      results.(i) <- fast @ slow @ [ send st c shared ]
    in
    let (), wall, minor, majors =
      measured (fun () -> List.iter Thread.join (List.init 2 (fun i -> Thread.create (client i) ())))
    in
    let samples = results.(0) @ results.(1) in
    let samples =
      if index > 0 then samples
      else begin
        first_round := samples;
        repeat_check ~stored samples
      end
    in
    List.iter
      (fun s -> record check ~what:(kind_name s.req.kind ^ " " ^ describe s.req) s.outcome)
      samples;
    let layers =
      match before with
      | None -> []
      | Some (m0, s0) ->
          let m1 = scrape server and s1 = spans () in
          let span = delta s0 s1 and metric = delta m0 m1 in
          let hit_ratio table =
            let h = metric ("gpp_cache_" ^ table ^ "_hits") in
            ratio h (h +. metric ("gpp_cache_" ^ table ^ "_misses"))
          in
          let sim = span "engine.simulate" in
          let events = metric "gpp_sim_engine_events" in
          let candidates = metric "gpp_transform_candidates" in
          let explore = span "engine.explore" in
          let latency_ms kind =
            List.filter_map
              (fun s -> if s.req.kind = kind then Some (1000. *. s.latency) else None)
              samples
          in
          (* A coalesced pair is one computation: count its slower copy. *)
          let miss_ms =
            sum (latency_ms Reproject) +. sum (latency_ms Fresh)
            +. List.fold_left Float.max 0. (latency_ms Coalesced)
          in
          [
            ("gpusim.simulate_ms", sim);
            (* Two handlers can be inside Simulate at once, so the
               share is of summed request time, not of wall time. *)
            ("gpusim.share_pct", 100. *. ratio sim (sum (List.map (fun s -> 1000. *. s.latency) samples)));
            ("gpusim.events", events);
            ("gpusim.events_per_s", ratio events (sim /. 1000.));
            ("gpusim.words_per_event", ratio minor events);
            ("pcie.calibrate_ms", span "pcie.calibrate");
            ("skeleton.parse_ms", span "parse");
            ("analysis.lint_ms", span "analysis.lint");
            ("dataflow.analyze_ms", span "engine.analyze");
            ("transform.explore_ms", explore);
            ("transform.candidates_per_s", ratio candidates (explore /. 1000.));
            ("transform.feasible_ratio", ratio (metric "gpp_transform_feasible") candidates);
            ("predict.stage_ms", span "engine.predict");
            ("core.project_ms", span "engine.project");
            ("core.evaluate_ms", span "engine.evaluate");
            ("cache.responses.hit_ratio", hit_ratio "serve_responses");
            ("cache.run_mean.hit_ratio", hit_ratio "gpusim_run_mean");
            ("cache.search.hit_ratio", hit_ratio "transform_search");
            ("cache.evictions", metric "gpp_cache_evictions");
            ("serve.hit_ms", median (latency_ms Hot));
            ("serve.miss_ms", median (latency_ms Fresh));
            ("serve.simulate_share_pct", 100. *. ratio sim miss_ms);
            ("http.healthz_ms", median (latency_ms Healthz));
            ("serve.coalesced", metric "gpp_serve_coalesced");
          ]
    in
    {
      wall;
      traced;
      latency_ms = List.map (fun s -> 1000. *. s.latency) samples;
      ops = List.length samples;
      layers;
      minor;
      majors;
    }
  in
  let rounds =
    Fun.protect
      ~finally:(fun () -> stop measured_server)
      (fun () -> drive ~seconds ~trace round)
  in
  (* As many set-ups again after the rounds, so the median spans the
     whole run rather than the few seconds before it. *)
  let setup_after =
    Fun.protect
      ~finally:(fun () -> rm_rf root)
      (fun () ->
        let samples, last = repeated_setup ~discard:stop setup in
        stop last;
        samples)
  in
  if stored = None && check.failed = 0 then
    Out_channel.with_open_bin (digests_path seed) (fun oc ->
        List.iter (fun s -> output_string oc (digest_of s ^ "\n")) !first_round);
  (* The hot /batch replies carry the service's prediction accuracy:
     mean with-transfer speedup error over their ok cells. *)
  let pred_err_pct =
    let errs =
      List.concat_map
        (fun (s : sample) ->
          if s.req.target = "/project" then []
          else
            List.filter_map
              (fun row ->
                match String.split_on_char '\t' row with
                | [ _; _; _; "ok"; measured; _; _; with_transfer; _; _ ] ->
                    let m = float_of_string measured and p = float_of_string with_transfer in
                    Some (100. *. Float.abs (p -. m) /. m)
                | _ -> None)
              (List.tl (lines s.body)))
        warm
    in
    ratio (sum errs) (float_of_int (List.length errs))
  in
  summarize ~setup_s:(setup_before @ setup_after) ~check ~pred_err_pct rounds
