(** The MiniC++ front end — the user-facing rendering of the paper's
    Figure 3 debugging process:

    {v
    raceguard-minicc check file.mcc                # parse + semantic checks
    raceguard-minicc annotate file.mcc             # print the instrumented source
    raceguard-minicc lint file.mcc [--json]        # static lockset/escape analysis
    raceguard-minicc run file.mcc [options]        # execute under the detector
    v}

    Options for [run]:
    [--seed N] scheduler seed, [--no-annotate] uninstrumented build,
    [--config original|hwlc|hwlc+dr|hwlc+dr+hb], [--djit] add the
    vector-clock baseline, [--lock-order] add deadlock prediction,
    [--gen-suppressions] print a paste-ready suppression per report,
    [--suppressions FILE] load a suppression file, [--static-hints]
    feed the static analysis' thread-locality hints to the detector's
    fast path.

    Options for [lint]: [--json] the raceguard-lint/1 document,
    [--cross-check] also run the program dynamically and classify each
    finding confirmed / static-only / dynamic-only. *)

open Cmdliner
module M = Raceguard_minicc
module Det = Raceguard_detector
module Vm = Raceguard_vm
module Runner = Raceguard.Runner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load path =
  let src = read_file path in
  let pp = M.Preprocess.with_builtins () in
  (path, src, pp)

let handle_front_end_errors f =
  match f () with
  | v -> `Ok v
  | exception M.Lexer.Error (msg, pos) ->
      `Error (false, Fmt.str "lex error: %s at %a" msg M.Token.pp_pos pos)
  | exception M.Parser.Error (msg, pos) ->
      `Error (false, Fmt.str "parse error: %s at %a" msg M.Token.pp_pos pos)
  | exception M.Check.Error (msg, pos) ->
      `Error (false, Fmt.str "semantic error: %s at %a" msg M.Token.pp_pos pos)
  | exception M.Preprocess.Error msg -> `Error (false, "preprocess error: " ^ msg)
  | exception Sys_error msg -> `Error (false, msg)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.mcc" ~doc:"MiniC++ source file")

(* --- check ---------------------------------------------------------- *)

let check_cmd =
  let run path =
    handle_front_end_errors @@ fun () ->
    let file, src, pp = load path in
    let ast = M.Preprocess.parse pp ~file src in
    M.Check.check ast;
    Printf.printf "%s: %d class(es), %d function(s), %d un-annotated delete(s)\n" file
      (List.length (M.Ast.classes ast))
      (List.length (M.Ast.functions ast))
      (M.Annotate.unannotated_deletes ast)
  in
  Cmd.v (Cmd.info "check" ~doc:"Parse and semantically check a program.")
    Term.(ret (const run $ file_arg))

(* --- annotate -------------------------------------------------------- *)

let annotate_cmd =
  let run path =
    handle_front_end_errors @@ fun () ->
    let file, src, pp = load path in
    let ast = M.Preprocess.parse pp ~file src in
    M.Check.check ast;
    let ast, n = M.Annotate.annotate ast in
    Printf.eprintf "%d delete(s) annotated\n%!" n;
    print_string
      (M.Pretty.program ~header_comment:"// instrumented build\n#include \"valgrind/helgrind.h\"" ast)
  in
  Cmd.v
    (Cmd.info "annotate"
       ~doc:"Run the automatic source annotation pass and print the result (Figure 4).")
    Term.(ret (const run $ file_arg))

(* One VM run of a compiled program with [tools] attached. *)
let run_program ~seed tools interp =
  let config = { Runner.default with seed; helgrind_configs = []; tools } in
  (fst (Runner.run_main config (fun () -> M.Interp.run_main interp))).outcome

(* --- lint ------------------------------------------------------------- *)

(** One plain hwlc+dr run of the already-checked source, for
    [--cross-check]: the first occurrence of each location, because
    the cross-check reads only signatures. *)
let dynamic_reports ~seed ~file ~src =
  let interp, _pretty, _n = M.Interp.compile ~annotate:true ~file src in
  let helgrind = Det.Helgrind.create Det.Helgrind.hwlc_dr in
  ignore (run_program ~seed [ Det.Helgrind.tool helgrind ] interp);
  List.map fst (Det.Helgrind.locations helgrind)

let lint_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the machine-readable raceguard-lint/1 JSON document.")
  in
  let cross_check =
    Arg.(
      value & flag
      & info [ "cross-check" ]
          ~doc:
            "Also execute the program once under the dynamic detector (hwlc+dr) and classify \
             each finding as confirmed, static-only or dynamic-only by report signature.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Scheduler seed for $(b,--cross-check).")
  in
  let cross_seeds =
    Arg.(
      value
      & opt (list int) []
      & info [ "cross-seeds" ] ~docv:"N,M,..."
          ~doc:
            "Replay $(b,--cross-check) under each of these scheduler seeds and compare the \
             static findings against the union of the dynamic signatures (more schedules \
             shrink the static-only bucket).  Defaults to just $(b,--seed).")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Worker domains for the per-seed replays (1 = sequential, 0 = auto).  Verdicts \
             are identical for any value.")
  in
  let run path json cross_check seed cross_seeds domains =
    let go () =
      let file, src, pp = load path in
      let ast = M.Preprocess.parse pp ~file src in
      match M.Check.check_all ast with
      | _ :: _ as diags ->
          List.iter
            (fun (msg, pos) -> Fmt.epr "semantic error: %s at %a@." msg M.Token.pp_pos pos)
            diags;
          `Error (false, Fmt.str "%d semantic error(s) in %s" (List.length diags) file)
      | [] ->
          let result = M.Static_race.analyse ast in
          let cc =
            if cross_check || cross_seeds <> [] then
              let seeds = if cross_seeds = [] then [ seed ] else cross_seeds in
              Some
                (Raceguard.Static_dyn.cross_check_seeds ~domains ~static:result
                   ~run:(fun seed -> dynamic_reports ~seed ~file ~src)
                   seeds)
            else None
          in
          (if json then
             let module Json = Raceguard_obs.Json in
             let doc = M.Static_race.to_json ~file result in
             let doc =
               match (doc, cc) with
               | Json.Obj fields, Some c ->
                   Json.Obj (fields @ [ ("cross_check", Raceguard.Static_dyn.to_json c) ])
               | _ -> doc
             in
             print_endline (Json.to_string ~indent:2 doc)
           else begin
             Fmt.pr "%a" M.Static_race.pp_result result;
             match cc with None -> () | Some c -> Fmt.pr "@.%a" Raceguard.Static_dyn.pp c
           end);
          `Ok ()
    in
    match handle_front_end_errors go with `Ok r -> r | `Error _ as e -> e
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static lockset & thread-escape analysis: interprocedural must-locksets, fork-join \
          ordering and escape closure, without executing the program.")
    Term.(ret (const run $ file_arg $ json $ cross_check $ seed $ cross_seeds $ domains))

(* --- run -------------------------------------------------------------- *)

let config_conv =
  let parse = function
    | "original" -> Ok Det.Helgrind.original
    | "hwlc" -> Ok Det.Helgrind.hwlc
    | "hwlc+dr" -> Ok Det.Helgrind.hwlc_dr
    | "hwlc+dr+hb" -> Ok Det.Helgrind.hwlc_dr_hb
    | "pure-eraser" -> Ok Det.Helgrind.pure_eraser
    | s -> Error (`Msg ("unknown configuration " ^ s))
  in
  let print ppf c = Det.Helgrind.pp_config_name ppf c in
  Arg.conv (parse, print)

let run_cmd =
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Scheduler seed.") in
  let no_annotate =
    Arg.(value & flag & info [ "no-annotate" ] ~doc:"Build without the delete annotation.")
  in
  let config =
    Arg.(
      value
      & opt config_conv Det.Helgrind.hwlc_dr
      & info [ "config" ] ~doc:"Detector configuration: original | hwlc | hwlc+dr | hwlc+dr+hb | pure-eraser.")
  in
  let djit = Arg.(value & flag & info [ "djit" ] ~doc:"Also run the DJIT vector-clock baseline.") in
  let lock_order =
    Arg.(value & flag & info [ "lock-order" ] ~doc:"Also run lock-order deadlock prediction.")
  in
  let gen_suppressions =
    Arg.(value & flag & info [ "gen-suppressions" ] ~doc:"Print a suppression per location.")
  in
  let suppressions_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "suppressions" ] ~docv:"FILE" ~doc:"Load a suppression file.")
  in
  let static_hints =
    Arg.(
      value & flag
      & info [ "static-hints" ]
          ~doc:
            "Run the static analysis first and pre-mark its provably thread-local allocation \
             sites in the detector, so their words keep the shadow fast path across segment \
             advances.  Reports are unchanged; the fast-path hit rate rises.")
  in
  let run path seed no_annotate config djit lock_order gen_suppressions suppressions_file
      static_hints =
    handle_front_end_errors @@ fun () ->
    let file, src, _ = load path in
    let suppressions =
      match suppressions_file with
      | None -> []
      | Some f -> Det.Suppression.parse_string (read_file f)
    in
    let interp, _pretty, n_annotated =
      M.Interp.compile ~annotate:(not no_annotate) ~file src
    in
    let helgrind = Det.Helgrind.create ~suppressions config in
    if static_hints then begin
      (* compile already checked this source; a fresh parse feeds the
         static pass, whose hint sites are (file, line)s of allocations *)
      let ast = M.Preprocess.parse (M.Preprocess.with_builtins ()) ~file src in
      let sr = M.Static_race.analyse ast in
      Det.Helgrind.set_static_hints helgrind sr.M.Static_race.hint_locs;
      Printf.eprintf "static hints: %d thread-local allocation site(s)\n%!"
        (List.length sr.M.Static_race.hint_locs)
    end;
    let djit_t = if djit then Some (Det.Djit.create ~suppressions ()) else None in
    let lo_t = if lock_order then Some (Det.Lock_order.create ~suppressions ()) else None in
    let tools =
      (Det.Helgrind.tool helgrind :: Option.to_list (Option.map Det.Djit.tool djit_t))
      @ Option.to_list (Option.map Det.Lock_order.tool lo_t)
    in
    let outcome = run_program ~seed tools interp in
    List.iter (fun line -> print_endline line) (M.Interp.output interp);
    Printf.printf "== %s: %d ops, %d thread(s), %d delete(s) annotated ==\n" file
      outcome.stats.ops_executed outcome.stats.threads_created n_annotated;
    List.iter
      (fun (tid, name, e) ->
        Printf.printf "thread %d (%s) raised: %s\n" tid name (Printexc.to_string e))
      outcome.failures;
    (match outcome.deadlock with
    | Some d -> Fmt.pr "%a" Vm.Engine.pp_deadlock d
    | None -> ());
    let print_reports title locations =
      Printf.printf "\n%s: %d location(s)\n" title (List.length locations);
      List.iter
        (fun ((r : Det.Report.t), n) ->
          Fmt.pr "[%d occurrence(s)] %a@." n Det.Report.pp r;
          if gen_suppressions then
            print_string
              (Det.Suppression.to_string
                 (Det.Suppression.of_frames ~name:"<insert-a-name-here>"
                    ~kind:(Fmt.str "%a" Det.Report.pp_kind r.kind)
                    ~frames:r.stack)))
        locations
    in
    print_reports
      (Fmt.str "%a" Det.Helgrind.pp_config_name config)
      (Det.Helgrind.locations helgrind);
    (match djit_t with
    | Some d -> print_reports "DJIT" (Det.Djit.locations d)
    | None -> ());
    (match lo_t with
    | Some l -> print_reports "lock-order" (Det.Lock_order.locations l)
    | None -> ());
    if Det.Report.suppressed_count (Det.Helgrind.collector helgrind) > 0 then
      Printf.printf "\n(%d occurrence(s) suppressed)\n"
        (Det.Report.suppressed_count (Det.Helgrind.collector helgrind))
  in
  Cmd.v (Cmd.info "run" ~doc:"Execute a program on the VM under the race detector.")
    Term.(
      ret
        (const run $ file_arg $ seed $ no_annotate $ config $ djit $ lock_order
       $ gen_suppressions $ suppressions_file $ static_hints))

let () =
  let info =
    Cmd.info "raceguard-minicc" ~version:"0.9"
      ~doc:"MiniC++ front end for the RaceGuard detector (Figure 3 pipeline)."
  in
  exit (Cmd.eval (Cmd.group info [ check_cmd; annotate_cmd; lint_cmd; run_cmd ]))
