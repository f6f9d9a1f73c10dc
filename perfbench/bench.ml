(* perfbench: the end-to-end and per-layer benchmark of raceguard.

   bench.exe --workload NAME --seed N --seconds S --trace 0|1
   bench.exe --pin FILE --seed N

   The last line of standard output is the run's result as one JSON
   object; everything else goes to standard error.  See README.md. *)

open Common
module Json = Raceguard_obs.Json

type workload = {
  input_seed : int -> int;  (** the seed the workload's inputs are made from *)
  run : seconds:float -> seed:int -> pinned:(int -> Refs.table option) -> outcome;
  traced : seed:int -> pinned:(int -> Refs.table option) -> outcome;
  pin : seed:int -> Refs.table;
}

let workloads =
  [
    ( Sip_detect.name,
      { input_seed = Fun.id; run = Sip_detect.run; traced = Sip_detect.traced; pin = Sip_detect.pin } );
    ( Chaos_grid.name,
      { input_seed = Chaos_grid.input_seed; run = Chaos_grid.run; traced = Chaos_grid.traced; pin = Chaos_grid.pin } );
    ( Trace_replay.name,
      { input_seed = Fun.id; run = Trace_replay.run; traced = Trace_replay.traced; pin = Trace_replay.pin } );
  ]

(* Every per-layer metric, as BENCHMARK.json lists them.  A traced run
   reports all of them; a layer its workload does not exercise reads 0. *)
let per_layer =
  let replay cfg =
    let n = String.map (fun c -> if c = '+' then '_' else c) cfg in
    [ ("detector." ^ n ^ ".replay_ns_per_event", "ns/event"); ("detector." ^ n ^ ".locations", "count") ]
  in
  [
    ("vm.events", "count");
    ("vm.ops_executed", "count");
    ("vm.scheduler_switches", "count");
    ("vm.threads_created", "count");
    ("vm.memory_allocs", "count");
    ("vm.ns_per_event", "ns/event");
    ("vm.minor_words_per_event", "words/event");
    ("tool.dispatch_ns_per_event", "ns/event");
    ("detector.hwlc_dr.ns_per_event", "ns/event");
    ("detector.hwlc_dr.minor_words_per_event", "words/event");
    ("detector.hwlc_dr.accesses_checked", "count");
    ("detector.hwlc_dr.fast_path_rate", "ratio");
    ("detector.hwlc_dr.locations", "count");
    ("detector.lockset.memo_hit_rate", "ratio");
    ("detector.held_locks.memo_hit_rate", "ratio");
    ("detector.hwlc_dr.slowdown", "ratio");
  ]
  @ List.concat_map replay Raceguard_detector.Offline.configs
  @ [
      ("detector.fasttrack.epoch_hit_rate", "ratio");
      ("detector.fasttrack.read_promotions", "count");
    ]
  @ List.map (fun k -> ("faults.injected." ^ k, "count")) Chaos_grid.injected_kinds
  @ [
      ("chaos.budget_exhausted_cells", "count");
      ("chaos.budget_cells_share", "ratio");
      ("trace.bytes_per_event", "B/event");
      ("trace.encode_ns_per_event", "ns/event");
      ("trace.decode_ns_per_event", "ns/event");
      ("trace.replay_driver_ns_per_event", "ns/event");
      ("par.busy_s.d0", "s");
      ("par.busy_s.d1", "s");
      ("par.idle_s.d0", "s");
      ("par.idle_s.d1", "s");
      ("par.minor_words.d0", "words");
      ("par.minor_words.d1", "words");
      ("par.minor_collections", "count");
      ("par.steals", "count");
      ("par.critical_path_s", "s");
      ("par.makespan_over_bound", "ratio");
      ("par.cell_inflation", "ratio");
      ("core.runner_ns_per_event", "ns/event");
      ("bench.trace_overhead_frac", "ratio");
      ("bench.host_slowdown", "ratio");
    ]

let complete metrics =
  List.iter
    (fun x ->
      match List.assoc_opt x.name per_layer with
      | Some u when u = x.unit_ -> ()
      | _ -> failwith ("per-layer metric not in the catalogue: " ^ x.name ^ " " ^ x.unit_))
    metrics;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) metrics with Some x -> x | None -> m name unit_ 0.)
    per_layer

(* Relative to the root of the checkout, where run.py runs us. *)
let refs_dir = "perfbench/refs"
let spans_dir = ".bench_out"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let load_refs ~dir ~seed = match Refs.load ~dir ~seed with Ok t -> t | Error e -> die "references: %s" e

(* The quick chaos cells committed in ci/chaos_quick_digests.json must
   agree with the pinned full grid. *)
let check_quick_digests ~seed chaos_table path =
  match Option.map Json.parse (try Some (In_channel.with_open_text path In_channel.input_all) with Sys_error _ -> None) with
  | Some (Ok doc) when Json.member "seed" doc = Some (Json.int seed) ->
      let cells = Option.value ~default:[] (Option.bind (Json.member "cells" doc) Json.to_list_opt) in
      let str k c = Option.value ~default:"" (Option.bind (Json.member k c) Json.to_string_opt) in
      List.iter
        (fun c ->
          let k =
            Printf.sprintf "%s/%s/%s" (str "plan" c) (str "test" c)
              (if Json.member "resilient" c = Some (Json.Bool true) then "res" else "base")
          in
          let e = [ ("sig_digest", str "sig_digest" c); ("behavior_digest", str "behavior_digest" c) ] in
          if not (Refs.matches (Some chaos_table) k e) then die "%s: cell %s disagrees with the grid" path k)
        cells;
      Printf.eprintf "perfbench: %d quick cells agree with %s\n%!" (List.length cells) path
  | _ -> Printf.eprintf "perfbench: %s not checked (missing or another seed)\n%!" path

(* Write [seed]'s references for the named workloads. *)
let pin ~dir ~seed names =
  let tables =
    List.map
      (fun name ->
        match List.assoc_opt name workloads with
        | Some w when w.input_seed seed = seed -> (name, w.pin ~seed)
        | Some _ -> die "%s never runs on seed %d" name seed
        | None -> die "unknown workload %S" name)
      names
  in
  Option.iter
    (fun chaos -> check_quick_digests ~seed chaos "ci/chaos_quick_digests.json")
    (List.assoc_opt Chaos_grid.name tables);
  Refs.save ~dir ~seed tables;
  Printf.eprintf "perfbench: references for seed %d written to %s\n%!" seed (Refs.path ~dir ~seed)

let () =
  let workload = ref "" and seed = ref 7 and seconds = ref 10 and trace = ref 0 in
  let corrupt = ref false and pin_names = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME sip-detect | chaos-grid | trace-replay");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
      ("--corrupt-ref", Arg.Set corrupt, " corrupt one pinned digest (self-test)");
      ("--pin", Arg.Set_string pin_names, "W1,W2 write the references of --seed for these workloads and exit");
    ]
    (fun a -> die "unexpected argument %s" a)
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !pin_names <> "" then pin ~dir:refs_dir ~seed:!seed (String.split_on_char ',' !pin_names)
  else begin
    let w =
      match List.assoc_opt !workload workloads with
      | Some w -> w
      | None -> die "unknown workload %S" !workload
    in
    if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
    if !seconds < 1 then die "--seconds takes a positive whole number";
    let workload = !workload and seed = w.input_seed !seed in
    let table seed = List.assoc_opt workload (load_refs ~dir:refs_dir ~seed) in
    let is_pinned = table seed <> None in
    if !corrupt && not is_pinned then die "--corrupt-ref needs a pinned seed";
    (* loading the references is part of each set-up *)
    let pinned seed = if !corrupt then Option.map Refs.corrupt_first (table seed) else table seed in
    let o =
      if !trace = 0 then w.run ~seconds:(fi !seconds) ~seed ~pinned
      else begin
        let o = w.traced ~seed ~pinned in
        (try Unix.mkdir spans_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        let path = Filename.concat spans_dir (Printf.sprintf "spans-%s-seed%d.json" workload seed) in
        Span.write ~path ~workload ~seed (Span.all ());
        Printf.eprintf "perfbench: spans written to %s\n" path;
        { o with metrics = complete (m "bench.host_slowdown" "ratio" (host_slowdown ()) :: o.metrics) }
      end
    in
    Printf.eprintf "perfbench: %s seed %d: %d items, %d failed (failed_frac %.4f), %s\n%!" workload seed
      o.attempted o.failed
      (ratio (fi o.failed) (fi o.attempted))
      (if is_pinned then "checked against pinned references" else "unpinned seed: pin-free checks");
    print_endline (result_line o)
  end
