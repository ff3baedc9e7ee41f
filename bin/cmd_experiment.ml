open Cmdliner

let run ids list_only csv_dir scenario =
  match scenario with
  | Error e -> Cmd_common.fail e
  | Ok c ->
      if list_only then begin
        List.iter
          (fun (e : Gpp_experiments.Suite.entry) -> Printf.printf "%-26s %s\n" e.id e.title)
          Gpp_experiments.Suite.all;
        0
      end
      else begin
        (* Resolve every id before running anything, and report a usage
           error (exit 2) through the same return path as the rest of the
           CLI — never a bare [exit] that skips Cmd.eval'. *)
        let entries =
          match ids with
          | [] -> Ok Gpp_experiments.Suite.all
          | ids ->
              List.fold_left
                (fun acc id ->
                  match (acc, Gpp_experiments.Suite.find id) with
                  | Error e, _ -> Error e
                  | Ok _, None -> Error id
                  | Ok entries, Some e -> Ok (entries @ [ e ]))
                (Ok []) ids
        in
        match entries with
        | Error id ->
            Printf.eprintf "unknown experiment id %s (try --list)\n" id;
            2
        | Ok entries ->
            let ctx =
              Gpp_obs.Obs.span "experiment.context" (fun () ->
                  Gpp_experiments.Context.create ~machine:c.Gpp_engine.Config.machine
                    ~seed:c.Gpp_engine.Config.seed ())
            in
            List.iter
              (fun (e : Gpp_experiments.Suite.entry) ->
                let out = Gpp_obs.Obs.span ("experiment." ^ e.id) (fun () -> e.run ctx) in
                Gpp_experiments.Output.print out;
                print_newline ())
              entries;
            (match csv_dir with
            | None -> ()
            | Some dir ->
                let written = Gpp_experiments.Export.write_all ctx ~dir in
                Printf.printf "wrote %d CSV files to %s\n" (List.length written) dir);
            Gpp_core.Grophecy.log_cache_stats ();
            0
      end

let cmd =
  let doc = "Regenerate paper tables and figures (all, or selected by id)." in
  let ids_arg = Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids.") in
  let list_arg = Arg.(value & flag & info [ "list" ] ~doc:"List available experiment ids.") in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR" ~doc:"Also export every experiment's data as CSV into $(docv).")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc)
    Term.(
      const run $ ids_arg $ list_arg $ csv_arg $ Cmd_common.scenario [])
