open Cmdliner
module Engine = Gpp_engine

let run scenario key =
  match scenario with
  | Error e -> Cmd_common.fail e
  | Ok c -> (
      (* The projection commands have always rescaled Repeat nodes by the
         -n flag (default 1) and linted before projecting. *)
      let c = { c with Engine.Config.lint = true } in
      let c =
        if c.Engine.Config.iterations = None then { c with Engine.Config.iterations = Some 1 }
        else c
      in
      let session = Engine.Pipeline.session_of c in
      match Engine.Pipeline.run ~through:Engine.Stage.Project ~session c ~workload:key with
      | Error e -> Cmd_common.fail e
      | Ok state ->
          let projection = Engine.Pipeline.projection_exn state in
          Format.printf "%a@." Gpp_core.Projection.pp projection;
          Format.printf "%a@." Gpp_dataflow.Analyzer.pp_plan projection.Gpp_core.Projection.plan;
          Gpp_core.Grophecy.log_cache_stats ();
          0)

let cmd =
  let doc = "Project GPU kernel and transfer time for a workload (prediction only)." in
  Cmd.v
    (Cmd.info "project" ~doc)
    Term.(
      const run
      $ Cmd_common.(scenario [ machine; machines; seed; iterations; transfer_plan; predict ])
      $ Cmd_common.workload_arg)
