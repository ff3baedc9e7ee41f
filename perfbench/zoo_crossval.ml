(* zoo-crossval: the predictor-variant cross-machine evaluation
   (analytic, scaled, scaled,learned) over a Kepler-to-Hopper slice of
   the machine zoo, memo bypassed.  The same simulator as paper-cold
   but seeded noise-free on devices with many more SMs, and the only
   workload that runs the predict layer (Learn / Ridge / Features /
   Pricing) and the crossval code. *)

open Common
module Config = Gpp_engine.Config
module Pipeline = Gpp_engine.Pipeline
module Crossval = Gpp_experiments.Crossval
module Predictor = Gpp_predict.Predictor

let golden_path = "test/golden/crossval_variants.expected.tsv"
let machine_ids = [ "kepler"; "laptop-x4"; "volta-nvlink"; "hopper" ]
let predictor_names = [ "analytic"; "scaled"; "scaled,learned" ]

(* What a crossval user pays before scoring: resolve the machines and
   predictor stacks, calibrate a session per machine and build the
   workloads' skeletons.  [run_variants] repeats the calibration and
   skeleton work inside its own call; set-up times it separately. *)
let setup ids =
  let machines = List.map machine_of ids in
  let predictors = List.map
      (fun p -> match Predictor.of_string p with Ok p -> p | Error msg -> failwith msg)
      predictor_names in
  List.iter
    (fun m -> ignore (Pipeline.session_of { Config.default with Config.machine = m }))
    machines;
  List.iter
    (fun w ->
      match Gpp_engine.Workload.resolve w with
      | Ok inst -> ignore (inst.Gpp_workloads.Registry.program 1)
      | Error e -> failwith (Gpp_engine.Error.message e))
    Crossval.default_workloads;
  (machines, predictors)

(* Rows are pair-local, so each row equals the full-catalog golden row
   with the same (predictor, source, target). *)
let row_key row =
  match String.split_on_char '\t' row with p :: s :: t :: _ -> (p, s, t) | _ -> (row, "", "")

(* This workload's accuracy figure: the mean end-to-end error
   of scaled,learned over the cross-machine pairs. *)
let mean_cross_learned_err (v : Crossval.variants) =
  let errs =
    List.filter_map
      (fun (r : Crossval.variant_row) ->
        if Predictor.name r.v_predictor = "scaled,learned"
           && r.v_source.Gpp_arch.Machine.id <> r.v_target.Gpp_arch.Machine.id
        then Some r.v_e2e_err
        else None)
      v.rows
  in
  ratio (sum errs) (float_of_int (List.length errs))

let run ~seed ~seconds ~trace =
  Gpp_cache.Control.set_enabled false;
  Gpp_cache.Control.set_disk_enabled false;
  let golden = golden_rows golden_path ~key:row_key in
  (* The seed orders the machine list; the scores stay the goldens'. *)
  let ids =
    let st = Random.State.make [| Int64.to_int seed |] in
    List.map snd (List.sort compare (List.map (fun id -> (Random.State.bits st, id)) machine_ids))
  in
  let check = new_check () in
  let (machines, predictors), first_setup = timed (fun () -> setup ids) in
  let pred_err_pct = ref 0. in
  let round ~index ~traced =
    if traced then begin
      Obs.reset ();
      Obs.set_enabled true
    end;
    let result, wall, minor, majors =
      measured (fun () ->
          Crossval.run_variants ~seed:Config.default.Config.seed ~predictors ~machines ())
    in
    let rows =
      match result with
      | Ok v ->
          if index = 0 then pred_err_pct := mean_cross_learned_err v;
          List.tl (lines (Crossval.variants_to_tsv v))
      | Error e ->
          record check ~what:"run_variants" (Error (Gpp_core.Error.message e));
          []
    in
    List.iter
      (fun row -> record check ~what:"crossval row" (compare_text ~expected:(golden row) ~actual:row))
      rows;
    let layers =
      if not traced then []
      else
        let sim = span_ms "gpusim.run_mean" in
        let search = span_ms "transform.search" in
        let calibrate = span_ms "pcie.calibrate" in
        let events = float_of_int (counter "sim.engine.events") in
        let candidates = float_of_int (counter "transform.candidates") in
        let wall_ms = 1000. *. wall in
        [
          ("gpusim.simulate_ms", sim);
          ("gpusim.share_pct", 100. *. ratio sim wall_ms);
          ("gpusim.events", events);
          ("gpusim.events_per_s", ratio events (sim /. 1000.));
          ("gpusim.words_per_event", ratio minor events);
          ("pcie.calibrate_ms", calibrate);
          ("skeleton.parse_ms", span_ms "parse");
          ("analysis.lint_ms", span_ms "analysis.lint");
          ("dataflow.analyze_ms", span_ms "dataflow.analyze");
          ("transform.explore_ms", search);
          ("transform.candidates_per_s", ratio candidates (search /. 1000.));
          ("transform.feasible_ratio", ratio (float_of_int (counter "transform.feasible")) candidates);
          ("predict.stage_ms", span_ms "engine.predict");
          ("predict.score_ms", wall_ms -. sim -. search -. calibrate);
          ("core.project_ms", span_ms "core.project" -. span_ms "core.search");
        ]
    in
    if traced then Obs.set_enabled false;
    (* One call per round: its rows are the ops, its time the only sample. *)
    { wall; traced; latency_ms = [ 1000. *. wall ]; ops = List.length rows; layers; minor; majors }
  in
  (* As in paper-cold: untraced runs sample set-up in the background. *)
  let rounds, sampled =
    if trace then (drive ~seconds ~trace round, [])
    else sampling_setup (fun () -> ignore (setup ids)) (fun () -> drive ~seconds ~trace round)
  in
  summarize ~setup_s:(first_setup :: sampled) ~check ~pred_err_pct:!pred_err_pct rounds
