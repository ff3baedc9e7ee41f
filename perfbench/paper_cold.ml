(* paper-cold: the paper's Table I matrix (CFD, HotSpot, SRAD, Stassuij
   × argonne, gt200) predicted and simulated cold, one cell at a time
   through the eight pipeline stages, exactly as the sequential batch
   runner drives them.  Nearly all of its time is the simulator on
   paper-era GPUs; serve and cache do nothing here. *)

open Common
module Config = Gpp_engine.Config
module Pipeline = Gpp_engine.Pipeline
module Batch = Gpp_engine.Batch
module Stage = Gpp_engine.Stage
module Registry = Gpp_workloads.Registry

let golden_path = "test/golden/batch.expected.tsv"

(* Memo bypassed, 10-run noisy means (the default), one domain, and the
   goldens' seed: every cell must reproduce its golden row. *)
let config = { Config.default with Config.use_cache = Some false; jobs = 1 }

(* One calibrated session per machine, exactly as [Batch.run] makes
   them.  Each round needs fresh sessions: the application link's RNG
   advances with every priced transfer. *)
let setup machines =
  List.map
    (fun (m : Gpp_arch.Machine.t) ->
      let mc = { config with Config.machine = m } in
      (m, mc, Pipeline.session_of mc))
    machines

let row_of cell_result =
  match lines (Batch.to_tsv { Batch.config; sessions = []; cells = [ cell_result ] }) with
  | [ _header; row ] -> row
  | _ -> invalid_arg "Batch.to_tsv: expected one row"

let row_key row =
  match String.split_on_char '\t' row with w :: m :: _ -> (w, m) | _ -> (row, "")

let run ~seed ~seconds ~trace =
  Gpp_cache.Control.set_enabled false;
  Gpp_cache.Control.set_disk_enabled false;
  let golden = golden_rows golden_path ~key:row_key in
  (* The seed picks which machine's cells run first.  Sessions are
     independent, so every cell still has exactly one golden row. *)
  let machines = [ machine_of "argonne"; machine_of "gt200" ] in
  let machines = if Int64.rem seed 2L = 0L then machines else List.rev machines in
  let workloads = List.map Registry.key Registry.paper_instances in
  let check = new_check () in
  let setup_samples = ref [] in
  let errs = ref [] in
  let round ~index ~traced =
    let sessions, dt = timed (fun () -> setup machines) in
    setup_samples := dt :: !setup_samples;
    if traced then begin
      Obs.reset ();
      Obs.set_enabled true
    end;
    let stages = Array.make (List.length Stage.all) 0. in
    let sim_words = ref 0. in
    let latencies = ref [] in
    let cell (machine, mconfig, session) workload =
      let cconfig = { mconfig with Config.iterations = None } in
      let c0 = now () in
      let state =
        List.fold_left
          (fun acc (stage : Pipeline.stage) ->
            match acc with
            | Error _ -> acc
            | Ok s ->
                let sim = traced && stage.id = Stage.Simulate in
                let w0 = if sim then minor_words () else 0. in
                let r, dt = timed (fun () -> stage.run ~session s) in
                let i = Stage.index stage.id in
                stages.(i) <- stages.(i) +. dt;
                if sim then sim_words := !sim_words +. (minor_words () -. w0);
                r)
          (Ok (Pipeline.init cconfig ~workload))
          Pipeline.stages
      in
      latencies := (now () -. c0) :: !latencies;
      let outcome = Result.map Pipeline.report_exn state in
      let row = row_of { Batch.cell = { Batch.workload; machine; iterations = None }; outcome } in
      (match outcome with
      | Ok r when index = 0 -> errs := r.Gpp_core.Grophecy.errors.with_transfer :: !errs
      | _ -> ());
      record check ~what:(workload ^ " on " ^ machine.Gpp_arch.Machine.id)
        (compare_text ~expected:(golden row) ~actual:row)
    in
    let (), wall, minor, majors =
      measured (fun () -> List.iter (fun s -> List.iter (cell s) workloads) sessions)
    in
    let layers =
      if not traced then []
      else
        let ms id = 1000. *. stages.(Stage.index id) in
        let sim_s = stages.(Stage.index Stage.Simulate) in
        let explore_s = stages.(Stage.index Stage.Explore) in
        let events = float_of_int (counter "sim.engine.events") in
        let candidates = float_of_int (counter "transform.candidates") in
        [
          ("gpusim.simulate_ms", ms Stage.Simulate);
          ("gpusim.share_pct", 100. *. ratio sim_s wall);
          ("gpusim.events", events);
          ("gpusim.events_per_s", ratio events sim_s);
          ("gpusim.words_per_event", ratio !sim_words events);
          ("pcie.calibrate_ms", 1000. *. median !setup_samples);
          ("skeleton.parse_ms", ms Stage.Parse);
          ("analysis.lint_ms", ms Stage.Lint);
          ("dataflow.analyze_ms", ms Stage.Analyze);
          ("transform.explore_ms", ms Stage.Explore);
          ("transform.candidates_per_s", ratio candidates explore_s);
          ( "transform.feasible_ratio",
            ratio (float_of_int (counter "transform.feasible")) candidates );
          ("predict.stage_ms", ms Stage.Predict);
          ("core.project_ms", ms Stage.Project);
          ("core.evaluate_ms", ms Stage.Evaluate);
          ( "engine.overhead_ms",
            1000. *. (sum !latencies -. Array.fold_left ( +. ) 0. stages) );
        ]
    in
    if traced then Obs.set_enabled false;
    {
      wall;
      traced;
      latency_ms = List.rev_map (fun s -> 1000. *. s) !latencies;
      ops = List.length !latencies;
      layers;
      minor;
      majors;
    }
  in
  (* Traced rounds turn obs on, so only untraced runs sample set-up in
     the background; a traced run reports no setup_s. *)
  let rounds, sampled =
    if trace then (drive ~seconds ~trace round, [])
    else sampling_setup (fun () -> ignore (setup machines)) (fun () -> drive ~seconds ~trace round)
  in
  (* The paper's headline: mean with-transfer speedup error over ok cells. *)
  let pred_err_pct = ratio (sum !errs) (float_of_int (List.length !errs)) in
  summarize ~setup_s:(List.rev_append !setup_samples sampled) ~check ~pred_err_pct rounds
