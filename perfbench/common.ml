(* Shared probe plumbing: the clock, the round loop, output checks,
   layer accounting, and the raw JSON record run.py reduces. *)

module Obs = Gpp_obs.Obs

let now () = Obs.now_us () /. 1e6

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let sum = List.fold_left ( +. ) 0.
let ratio num den = if den = 0. then 0. else num /. den

(* --- rounds ----------------------------------------------------------- *)

(* A round is a workload's fixed unit of work.  A run repeats whole
   rounds until [seconds] have passed, so every run sees the same mix
   of operations whatever the host's speed, and measures at least
   [seconds] of it.  In a traced run rounds alternate untraced / traced
   (at least one of each), and the pair of medians gives the tracing
   overhead. *)
let drive ~seconds ~trace round =
  let t0 = now () in
  let rec go i acc =
    let traced = trace && i mod 2 = 1 in
    let acc = round ~index:i ~traced :: acc in
    if now () -. t0 >= seconds && ((not trace) || i >= 1) then List.rev acc
    else go (i + 1) acc
  in
  go 0 []

(* Set-up is timed whole.  On a host whose speed switches between modes
   that last from milliseconds to seconds, a few-microsecond set-up
   repeated back to back lands in one mode per run, so its median flips
   between runs.  These two helpers spread the repetitions out instead.

   [repeated_setup] repeats a long set-up back to back, at least ten
   times and for at least two and a half seconds; every result but the
   last goes to [discard].  A caller that can call it more than once
   in a run spreads the set-ups further.

   [sampling_setup] times one [setup] about every 50 ms on a second
   thread while [f] runs, so the samples cover the whole timed part.
   Each sample costs the rounds one thread switch and one set-up. *)
let repeated_setup ?(discard = ignore) setup =
  let t0 = now () in
  let rec go samples =
    let r, dt = timed setup in
    let samples = dt :: samples in
    if now () -. t0 >= 2.5 && List.length samples >= 10 then (List.rev samples, r)
    else begin
      discard r;
      go samples
    end
  in
  go []

let sampling_setup setup f =
  (* Obs keeps one span stack per domain, so a traced run must not
     interleave the sampler's spans with the rounds'. *)
  if Obs.is_enabled () then invalid_arg "sampling_setup: obs is on";
  let samples = ref [] and stop = Atomic.make false in
  let sampler () =
    while not (Atomic.get stop) do
      Thread.delay 0.05;
      if not (Atomic.get stop) then samples := snd (timed setup) :: !samples
    done
  in
  let th = Thread.create sampler () in
  let r =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Thread.join th)
      f
  in
  (r, List.rev !samples)

(* --- output checks ---------------------------------------------------- *)

type check = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** First differing line per failing op, newest first. *)
}

let new_check () = { attempted = 0; failed = 0; failures = [] }

let first_difference ~expected ~actual =
  let e = String.split_on_char '\n' expected and a = String.split_on_char '\n' actual in
  let rec go i e a =
    match (e, a) with
    | [], [] -> Printf.sprintf "line %d: identical" i
    | x :: e, y :: a when x = y -> go (i + 1) e a
    | x :: _, y :: _ -> Printf.sprintf "line %d: expected %S, got %S" i x y
    | x :: _, [] -> Printf.sprintf "line %d: expected %S, got end of output" i x
    | [], y :: _ -> Printf.sprintf "line %d: expected end of output, got %S" i y
  in
  go 1 e a

(* Count one op; a failing op records where its output first differs
   (at most 20 are kept, the count is exact). *)
let record check ~what = function
  | Ok () -> check.attempted <- check.attempted + 1
  | Error msg ->
      check.attempted <- check.attempted + 1;
      check.failed <- check.failed + 1;
      if List.length check.failures < 20 then
        check.failures <- Printf.sprintf "%s: %s" what msg :: check.failures

let compare_text ~expected ~actual =
  if String.equal expected actual then Ok () else Error (first_difference ~expected ~actual)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let lines s = List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

(* A golden TSV's rows (header dropped), indexed by [key]. *)
let golden_rows path ~key =
  let t = Hashtbl.create 512 in
  List.iter (fun row -> Hashtbl.replace t (key row) row) (List.tl (lines (read_file path)));
  fun row -> Option.value (Hashtbl.find_opt t (key row)) ~default:"(no golden row)"

let digest s = Digest.to_hex (Digest.string s)

let machine_of name =
  match Gpp_engine.Config.machine_of_name name with Ok m -> m | Error msg -> failwith msg

(* --- layer accounting ------------------------------------------------- *)

let counter name = Obs.value (Obs.counter name)

(* Inclusive milliseconds of every closed span named [name]. *)
let span_ms name =
  List.fold_left
    (fun acc (a : Obs.agg) -> if a.name = name then acc +. (a.total_us /. 1000.) else acc)
    0. (Obs.aggregates ())

let minor_words () = (Gc.quick_stat ()).Gc.minor_words

let peak_rss_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0
  | status ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> Option.value (int_of_string_opt kb) ~default:acc
              | [] -> acc)
          | _ -> acc)
        0 (String.split_on_char '\n' status)

(* --- rounds and the raw record -------------------------------------------- *)

type round = {
  wall : float;  (** Seconds. *)
  traced : bool;
  latency_ms : float list;  (** One sample per op. *)
  ops : int;
  layers : (string * float) list;  (** Per-layer values; traced rounds only. *)
  minor : float;  (** Minor-heap words allocated during the round. *)
  majors : int;  (** Major collections during the round. *)
}

(* Run [f] as a round's timed part: (result, wall seconds, minor words,
   major collections). *)
let measured f =
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let r = f () in
  let wall = now () -. t0 in
  let g1 = Gc.quick_stat () in
  (r, wall, g1.Gc.minor_words -. g0.Gc.minor_words, g1.Gc.major_collections - g0.Gc.major_collections)

type raw = {
  setup_s : float list;  (** One sample per complete set-up. *)
  round_wall_s : float list;  (** Untraced rounds only. *)
  ops : int;  (** Ops completed in the untraced rounds. *)
  latency_ms : float list;  (** Per-op samples of the untraced rounds. *)
  check : check;
  pred_err_pct : float;
  per_layer : (string * float) list;  (** Traced runs only. *)
}

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_list f xs = "[" ^ String.concat ", " (List.map f xs) ^ "]"

let to_json ~workload ~trace r =
  let fields =
    [
      ("workload", json_string workload);
      ("trace", string_of_bool trace);
      ("setup_s", json_list json_float r.setup_s);
      ("round_wall_s", json_list json_float r.round_wall_s);
      ("ops", string_of_int r.ops);
      ("latency_ms", json_list json_float r.latency_ms);
      ("attempted", string_of_int r.check.attempted);
      ("failed", string_of_int r.check.failed);
      ("failures", json_list json_string (List.rev r.check.failures));
      ("pred_err_pct", json_float r.pred_err_pct);
      ("peak_rss_kb", string_of_int (peak_rss_kb ()));
      ( "per_layer",
        "{"
        ^ String.concat ", "
            (List.map (fun (k, v) -> json_string k ^ ": " ^ json_float v) r.per_layer)
        ^ "}" );
    ]
  in
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

(* End-to-end samples come from the untraced rounds; per-layer values
   are means over the traced rounds, plus the GC and tracing-overhead
   figures every workload derives the same way. *)
let summarize ~setup_s ~check ~pred_err_pct rounds =
  let untraced = List.filter (fun (r : round) -> not r.traced) rounds in
  let traced = List.filter (fun (r : round) -> r.traced) rounds in
  let walls = List.map (fun (r : round) -> r.wall) in
  let total f (rs : round list) = sum (List.map f rs) in
  let per_layer =
    match traced with
    | [] -> []
    | first :: _ ->
        let nt = float_of_int (List.length traced) in
        List.map
          (fun (name, _) -> (name, total (fun r -> List.assoc name r.layers) traced /. nt))
          first.layers
        @ [
            ( "gc.minor_words_per_op",
              ratio (total (fun r -> r.minor) traced) (total (fun (r : round) -> float_of_int r.ops) traced) );
            ("gc.major_collections", total (fun r -> float_of_int r.majors) traced /. nt);
            ( "obs.overhead_pct",
              100. *. (ratio (median (walls traced)) (median (walls untraced)) -. 1.) );
          ]
  in
  {
    setup_s;
    round_wall_s = walls untraced;
    ops = List.fold_left (fun a (r : round) -> a + r.ops) 0 untraced;
    latency_ms = List.concat_map (fun (r : round) -> r.latency_ms) untraced;
    check;
    pred_err_pct;
    per_layer;
  }
