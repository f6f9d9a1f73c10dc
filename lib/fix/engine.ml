(** The raceguard-fix pipeline: analyse → confirm → synthesise →
    verify → emit.

    Given one MiniC++ source file the engine runs the static lockset
    pass and the dynamic detectors over a set of schedule seeds,
    cross-checks them ({!Raceguard.Static_dyn}), plans one patch per
    confirmed [(site, field)] group ({!Synth}), verifies each candidate
    four ways ({!Verify}), folds every verified patch into a combined
    repaired program, and re-parses the pretty-printed repair to prove
    the emitted {e source} — not just the in-memory AST — still checks
    and carries the same residual static warnings.

    Results render as a human report ({!pp}) or the machine-readable
    [raceguard-fix/1] document ({!to_json}). *)

module M = Raceguard_minicc
module Det = Raceguard_detector
module Static_dyn = Raceguard.Static_dyn
module Json = Raceguard_obs.Json
module Report = Det.Report
module Loc = Raceguard_util.Loc
module Token = M.Token

type patch_result = {
  pr_id : int;
  pr_plan : Synth.plan;
  pr_patched : M.Ast.program option;  (** [None] when application failed *)
  pr_source : string option;  (** pretty-printed repaired source *)
  pr_stages : Verify.stage list;
  pr_verified : bool;
  pr_error : string option;  (** application failure, if any *)
}

type t = {
  t_file : string;
  t_seeds : int list;
  t_domains : int;
  t_cross : Static_dyn.t;
  t_confirmed : Report.signature list;
  t_patches : patch_result list;
  t_unfixed : (string * string) list;  (** (group description, reason) *)
  t_combined_source : string option;
      (** all verified patches folded into one repaired source *)
  t_recheck_ok : bool;
      (** every verified patch's emitted source re-parses, re-checks
          and re-analyses identically to its patched AST *)
}

let default_seeds = [ 1; 2; 3; 5; 7 ]

let header file =
  Fmt.str "// repaired by raceguard-fix/1 from %s" (Filename.basename file)

(** Re-parse one emitted repair and prove it equivalent to the patched
    AST it was printed from: same front-end acceptance, same static
    warning multiset. *)
let recheck_source ~file ~patched src =
  match M.Preprocess.parse (M.Preprocess.with_builtins ()) ~file src with
  | exception e -> Error (Fmt.str "emitted source no longer parses: %s" (Printexc.to_string e))
  | reparsed -> (
      match M.Check.check_all reparsed with
      | (msg, _) :: _ -> Error (Fmt.str "emitted source no longer checks: %s" msg)
      | [] ->
          let sigs p =
            List.sort compare
              (List.map
                 (fun (w : M.Static_race.warning) ->
                   Report.signature_of w.M.Static_race.w_kind w.M.Static_race.w_stack)
                 (M.Static_race.analyse p).M.Static_race.warnings)
          in
          if sigs reparsed = sigs patched then Ok ()
          else Error "emitted source carries different static warnings than the patched AST")

let run ?(seeds = default_seeds) ?(domains = 1) ~file ~src () : (t, string) result =
  let seeds = List.sort_uniq compare seeds in
  match M.Preprocess.parse (M.Preprocess.with_builtins ()) ~file src with
  | exception e -> Error (Fmt.str "front-end: %s" (Printexc.to_string e))
  | p0 -> (
      match M.Check.check_all p0 with
      | (msg, pos) :: _ ->
          Error (Fmt.str "%s:%d:%d: %s" pos.Token.file pos.Token.line pos.Token.col msg)
      | [] ->
          let static0 = M.Static_race.analyse p0 in
          let orig_runs = Verify.run_seeds ~domains p0 seeds in
          let dynamic = List.concat_map (fun r -> r.Verify.sr_reports) orig_runs in
          let cross = Static_dyn.cross_check ~static:static0 ~dynamic in
          let confirmed = Static_dyn.confirmed_sigs cross in
          let plans, unfixed = Synth.plan_groups p0 static0 ~confirmed in
          let patches =
            List.mapi
              (fun i plan ->
                match Synth.apply p0 plan with
                | Error e ->
                    {
                      pr_id = i;
                      pr_plan = plan;
                      pr_patched = None;
                      pr_source = None;
                      pr_stages = [];
                      pr_verified = false;
                      pr_error = Some e;
                    }
                | Ok patched ->
                    let stages, verified =
                      Verify.verify ~orig_prog:p0 ~patched_prog:patched
                        ~orig_static:static0 ~orig_runs ~seeds ~domains
                        ~fixed:plan.Synth.pl_fixed_sigs ~group:plan.Synth.pl_group_sigs
                    in
                    {
                      pr_id = i;
                      pr_plan = plan;
                      pr_patched = Some patched;
                      pr_source =
                        Some (M.Pretty.program ~header_comment:(header file) patched);
                      pr_stages = stages;
                      pr_verified = verified;
                      pr_error = None;
                    })
              plans
          in
          let verified_patches = List.filter (fun pr -> pr.pr_verified) patches in
          let combined =
            match verified_patches with
            | [] -> None
            | _ ->
                List.fold_left
                  (fun acc pr ->
                    match acc with
                    | None -> None
                    | Some p -> (
                        match Synth.apply p pr.pr_plan with
                        | Ok p' -> Some p'
                        | Error _ -> None))
                  (Some p0) verified_patches
          in
          let recheck_ok =
            List.for_all
              (fun pr ->
                match (pr.pr_patched, pr.pr_source) with
                | Some patched, Some src ->
                    recheck_source ~file ~patched src = Ok ()
                | _ -> true)
              verified_patches
          in
          Ok
            {
              t_file = file;
              t_seeds = seeds;
              t_domains = domains;
              t_cross = cross;
              t_confirmed = confirmed;
              t_patches = patches;
              t_unfixed = unfixed;
              t_combined_source =
                Option.map (M.Pretty.program ~header_comment:(header file)) combined;
              t_recheck_ok = recheck_ok;
            })

let n_verified t = List.length (List.filter (fun p -> p.pr_verified) t.t_patches)

let n_rejected t =
  List.length (List.filter (fun p -> not p.pr_verified) t.t_patches)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let sig_json (kind, stack) =
  Json.Obj
    [
      ("kind", Json.Str (Fmt.str "%a" Report.pp_kind kind));
      ( "stack",
        Json.List
          (List.map
             (fun (l : Loc.t) ->
               Json.Obj
                 [
                   ("file", Json.Str l.Loc.file);
                   ("func", Json.Str l.Loc.func);
                   ("line", Json.int l.Loc.line);
                 ])
             stack) );
    ]

let patch_json pr =
  let plan = pr.pr_plan in
  Json.Obj
    ([
       ("id", Json.int pr.pr_id);
       ("site", Json.int plan.Synth.pl_site.M.Static_race.site_id);
       ( "site_desc",
         Json.Str plan.Synth.pl_site.M.Static_race.site_desc );
       ("field", Json.Str plan.Synth.pl_field);
       ("strategy", Json.Str plan.Synth.pl_strategy);
       ("guard", Json.Str plan.Synth.pl_guard_desc);
       ("fixed", Json.List (List.map sig_json plan.Synth.pl_fixed_sigs));
       ( "wraps",
         Json.List
           (List.map
              (fun (node, (pos : Token.pos)) ->
                Json.Obj
                  [
                    ("func", Json.Str node);
                    ("line", Json.int pos.Token.line);
                    ("col", Json.int pos.Token.col);
                  ])
              plan.Synth.pl_targets) );
       ("edits", Json.List (List.map (fun e -> Json.Str e) plan.Synth.pl_edits));
       ( "stages",
         Json.List
           (List.map
              (fun (s : Verify.stage) ->
                Json.Obj
                  [
                    ("name", Json.Str s.Verify.sg_name);
                    ("ok", Json.Bool s.Verify.sg_ok);
                    ("detail", Json.Str s.Verify.sg_detail);
                  ])
              pr.pr_stages) );
       ("verified", Json.Bool pr.pr_verified);
     ]
    @ (match pr.pr_error with
      | Some e -> [ ("error", Json.Str e) ]
      | None -> [])
    @ match pr.pr_source with Some s -> [ ("source", Json.Str s) ] | None -> [])

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str "raceguard-fix/1");
      ("file", Json.Str t.t_file);
      ("seeds", Json.List (List.map Json.int t.t_seeds));
      ("confirmed", Json.List (List.map sig_json t.t_confirmed));
      ("patches", Json.List (List.map patch_json t.t_patches));
      ( "unfixed",
        Json.List
          (List.map
             (fun (group, reason) ->
               Json.Obj [ ("group", Json.Str group); ("reason", Json.Str reason) ])
             t.t_unfixed) );
      ( "summary",
        Json.Obj
          [
            ("patches", Json.int (List.length t.t_patches));
            ("verified", Json.int (n_verified t));
            ("rejected", Json.int (n_rejected t));
            ("unfixed", Json.int (List.length t.t_unfixed));
            ("recheck_ok", Json.Bool t.t_recheck_ok);
          ] );
    ]

let pp ppf t =
  Fmt.pf ppf "== raceguard-fix: %s ==@\n" t.t_file;
  Fmt.pf ppf "seeds: %a; confirmed findings: %d@\n"
    Fmt.(list ~sep:(any ",") int)
    t.t_seeds (List.length t.t_confirmed);
  List.iter
    (fun pr ->
      let plan = pr.pr_plan in
      Fmt.pf ppf "@\npatch #%d [%s] %s of %s via %s@\n" pr.pr_id
        plan.Synth.pl_strategy plan.Synth.pl_site.M.Static_race.site_desc
        (M.Static_race.field_desc plan.Synth.pl_field)
        plan.Synth.pl_guard_desc;
      List.iter (fun e -> Fmt.pf ppf "  edit: %s@\n" e) plan.Synth.pl_edits;
      (match pr.pr_error with
      | Some e -> Fmt.pf ppf "  application FAILED: %s@\n" e
      | None ->
          List.iter
            (fun (s : Verify.stage) ->
              Fmt.pf ppf "  [%s] %-10s %s@\n"
                (if s.Verify.sg_ok then "pass" else "FAIL")
                s.Verify.sg_name s.Verify.sg_detail)
            pr.pr_stages);
      Fmt.pf ppf "  verdict: %s@\n"
        (if pr.pr_verified then "VERIFIED" else "rejected"))
    t.t_patches;
  List.iter
    (fun (group, reason) -> Fmt.pf ppf "@\nunfixed %s: %s@\n" group reason)
    t.t_unfixed;
  Fmt.pf ppf "@\nsummary: %d patch(es), %d verified, %d rejected, %d unfixed%s@\n"
    (List.length t.t_patches) (n_verified t) (n_rejected t)
    (List.length t.t_unfixed)
    (if t.t_recheck_ok then "" else "; EMITTED-SOURCE RECHECK FAILED")
