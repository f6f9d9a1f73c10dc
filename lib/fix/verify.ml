(** Four-stage patch verification.

    A candidate patch is only {e verified} when all four stages pass:

    {ol
    {- {b static}: re-running {!Static_race.analyse} on the patched AST
       shows every repaired signature gone and no signature that was
       not already in the original analysis;}
    {- {b lock-order}: the patched program's static acquisition-nesting
       graph ({!Rewrite.lock_nest_edges} fed through
       {!Lock_order.Static_graph}) contains no inversion pair absent
       from the original's, and the dynamic lock-order tool reports no
       new signature on any verification schedule;}
    {- {b dynamic}: on every schedule seed, the repaired reports are
       gone and every report {e not} attributable to the patched group
       is byte-identical to the original run's rendering;}
    {- {b behaviour}: chaos-matrix-style invariant oracles — every
       patched run terminates without thread failures or deadlock, the
       output shape matches the original run on every seed, and
       wherever the original output was schedule-independent the
       patched output agrees with it.}}

    All patched-program schedules are fanned across domains with
    {!Raceguard_par.Par.map_cells}; verdicts are identical for any
    domain count, like every other campaign in the repo. *)

module M = Raceguard_minicc
module Det = Raceguard_detector
module Vm = Raceguard_vm
module Par = Raceguard_par.Par
module Report = Det.Report

type stage = { sg_name : string; sg_ok : bool; sg_detail : string }

(** Everything one deterministic schedule of one program variant
    yields, ready for byte- and signature-level comparison. *)
type seed_run = {
  sr_seed : int;
  sr_race_rendered : (Report.signature * string) list;  (** sorted [Report.pp] renderings *)
  sr_race_sigs : Report.signature list;
  sr_lo_sigs : Report.signature list;  (** lock-order report signatures *)
  sr_reports : Report.t list;  (** the raw race reports, for cross-checking *)
  sr_output : string list;
  sr_deadlock : bool;
  sr_failures : int;
}

let run_seed (p : M.Ast.program) seed : seed_run =
  let ast, _n = M.Annotate.annotate p in
  let interp = M.Interp.create ast in
  let vm = Vm.Engine.create ~config:{ Vm.Engine.default_config with seed } () in
  let helgrind = Det.Helgrind.create Det.Helgrind.hwlc_dr in
  let lo = Det.Lock_order.create () in
  Vm.Engine.add_tool vm (Det.Helgrind.tool helgrind);
  Vm.Engine.add_tool vm (Det.Lock_order.tool lo);
  let outcome = Vm.Engine.run vm (fun () -> M.Interp.run_main interp) in
  let races = List.map fst (Det.Helgrind.locations helgrind) in
  {
    sr_seed = seed;
    sr_race_rendered =
      List.sort compare
        (List.map (fun r -> (Report.signature r, Fmt.str "%a" Report.pp r)) races);
    sr_race_sigs = List.sort_uniq compare (List.map Report.signature races);
    sr_lo_sigs =
      List.sort_uniq compare
        (List.map (fun (r, _) -> Report.signature r) (Det.Lock_order.locations lo));
    sr_reports = races;
    sr_output = M.Interp.output interp;
    sr_deadlock = outcome.Vm.Engine.deadlock <> None;
    sr_failures = List.length outcome.Vm.Engine.failures;
  }

(** One run per seed, fanned across domains. *)
let run_seeds ?(domains = 1) (p : M.Ast.program) (seeds : int list) : seed_run list =
  Par.map_cells ~domains:(Par.resolve domains) (run_seed p) (Array.of_list seeds)
  |> Array.to_list

let static_sigs (r : M.Static_race.result) =
  List.sort_uniq compare
    (List.map
       (fun (w : M.Static_race.warning) ->
         Report.signature_of w.M.Static_race.w_kind w.M.Static_race.w_stack)
       r.M.Static_race.warnings)

(* --- stage 1: static ------------------------------------------------ *)

let stage_static ~orig_static ~patched_static ~fixed =
  let so = static_sigs orig_static and sp = static_sigs patched_static in
  let still = List.filter (fun s -> List.mem s sp) fixed in
  let fresh = List.filter (fun s -> not (List.mem s so)) sp in
  {
    sg_name = "static";
    sg_ok = still = [] && fresh = [];
    sg_detail =
      (if still <> [] then Fmt.str "%d repaired warning(s) still present" (List.length still)
       else if fresh <> [] then Fmt.str "%d new static warning(s)" (List.length fresh)
       else
         Fmt.str "%d -> %d static warnings, repaired signatures gone"
           (List.length so) (List.length sp));
  }

(* --- stage 2: lock order -------------------------------------------- *)

let stage_lock_order ~orig_prog ~patched_prog ~orig_runs ~patched_runs =
  let intern = Hashtbl.create 16 in
  let id k =
    match Hashtbl.find_opt intern k with
    | Some i -> i
    | None ->
        let i = Hashtbl.length intern in
        Hashtbl.replace intern k i;
        i
  in
  let graph p =
    Det.Lock_order.Static_graph.of_edges
      (List.map (fun (a, b) -> (id a, id b)) (Rewrite.lock_nest_edges p))
  in
  let inv_o = Det.Lock_order.Static_graph.inversions (graph orig_prog) in
  let inv_p = Det.Lock_order.Static_graph.inversions (graph patched_prog) in
  let new_invs = List.filter (fun e -> not (List.mem e inv_o)) inv_p in
  let lo_union runs = List.sort_uniq compare (List.concat_map (fun r -> r.sr_lo_sigs) runs) in
  let new_dyn =
    List.filter (fun s -> not (List.mem s (lo_union orig_runs))) (lo_union patched_runs)
  in
  {
    sg_name = "lock-order";
    sg_ok = new_invs = [] && new_dyn = [];
    sg_detail =
      (if new_invs <> [] then
         Fmt.str "%d new acquisition-order inversion(s)" (List.length new_invs)
       else if new_dyn <> [] then
         Fmt.str "%d new dynamic lock-order report(s)" (List.length new_dyn)
       else
         Fmt.str "no new inversion (%d order pair(s) checked)"
           (List.length (Det.Lock_order.Static_graph.edges (graph patched_prog))));
  }

(* --- stage 3: dynamic ------------------------------------------------ *)

let stage_dynamic ~orig_runs ~patched_runs ~fixed ~group =
  let errs = ref [] in
  List.iter2
    (fun (o : seed_run) (pt : seed_run) ->
      let leftover = List.filter (fun s -> List.mem s fixed) pt.sr_race_sigs in
      if leftover <> [] then
        errs := Fmt.str "seed %d: repaired report still fires" o.sr_seed :: !errs;
      let fresh = List.filter (fun s -> not (List.mem s o.sr_race_sigs)) pt.sr_race_sigs in
      if fresh <> [] then
        errs := Fmt.str "seed %d: %d new dynamic report(s)" o.sr_seed (List.length fresh) :: !errs;
      let outside runs =
        List.filter_map
          (fun (s, rendered) -> if List.mem s group then None else Some rendered)
          runs.sr_race_rendered
      in
      if outside o <> outside pt then
        errs := Fmt.str "seed %d: reports outside the patched group changed" o.sr_seed :: !errs)
    orig_runs patched_runs;
  {
    sg_name = "dynamic";
    sg_ok = !errs = [];
    sg_detail =
      (match !errs with
      | [] ->
          Fmt.str "repaired reports gone on %d schedule(s); all others byte-identical"
            (List.length patched_runs)
      | e -> String.concat "; " (List.sort_uniq compare e));
  }

(* --- stage 4: behaviour oracles -------------------------------------- *)

let stage_behaviour ~orig_runs ~patched_runs =
  let errs = ref [] in
  List.iter2
    (fun (o : seed_run) (pt : seed_run) ->
      if pt.sr_failures > 0 then
        errs := Fmt.str "seed %d: %d thread failure(s)" o.sr_seed pt.sr_failures :: !errs;
      if pt.sr_deadlock then errs := Fmt.str "seed %d: deadlock" o.sr_seed :: !errs;
      if List.length pt.sr_output <> List.length o.sr_output then
        errs := Fmt.str "seed %d: output length changed" o.sr_seed :: !errs)
    orig_runs patched_runs;
  (* where the original output is schedule-independent, the patch must
     preserve it (racy outputs are legitimately allowed to settle) *)
  (match (orig_runs, patched_runs) with
  | o0 :: _, _ ->
      let n = List.length o0.sr_output in
      let stable =
        List.for_all (fun (o : seed_run) -> List.length o.sr_output = n) orig_runs
      in
      if stable then
        List.iteri
          (fun i line ->
            let all_orig_agree =
              List.for_all (fun (o : seed_run) -> List.nth o.sr_output i = line) orig_runs
            in
            if all_orig_agree then
              List.iter
                (fun (pt : seed_run) ->
                  if List.length pt.sr_output = n && List.nth pt.sr_output i <> line then
                    errs :=
                      Fmt.str "seed %d: schedule-independent output line %d changed"
                        pt.sr_seed i
                      :: !errs)
                patched_runs)
          o0.sr_output
  | [], _ -> ());
  {
    sg_name = "behaviour";
    sg_ok = !errs = [];
    sg_detail =
      (match !errs with
      | [] ->
          Fmt.str
            "all %d schedule(s) terminate cleanly; schedule-independent output preserved"
            (List.length patched_runs)
      | e -> String.concat "; " (List.sort_uniq compare e));
  }

(** Run all four stages for one patch. *)
let verify ~orig_prog ~patched_prog ~orig_static ~orig_runs ~seeds ~domains
    ~(fixed : Report.signature list) ~(group : Report.signature list) : stage list * bool =
  let patched_static = M.Static_race.analyse patched_prog in
  let patched_runs = run_seeds ~domains patched_prog seeds in
  let stages =
    [
      stage_static ~orig_static ~patched_static ~fixed;
      stage_lock_order ~orig_prog ~patched_prog ~orig_runs ~patched_runs;
      stage_dynamic ~orig_runs ~patched_runs ~fixed ~group;
      stage_behaviour ~orig_runs ~patched_runs;
    ]
  in
  (stages, List.for_all (fun s -> s.sg_ok) stages)
