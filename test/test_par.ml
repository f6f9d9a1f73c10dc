(* The domain pool (lib/par/): the map_cells ≡ Array.map contract with
   every cell run exactly once, exception propagation, the worker count
   (capped by the cells and by the runtime's domain limit), the
   one-domain path running on the caller in index order, --domains 0
   resolution — and the determinism pin the pool rests on: chaos and
   bench-style digests are byte-identical for --domains 1/2/4 on seeds
   7 and 42. *)

module Par = Raceguard_par.Par
module R = Raceguard
module Det = Raceguard_detector
module Vm = Raceguard_vm
module Sip = Raceguard_sip

(* --- map_cells ≡ Array.map ----------------------------------------- *)

let qc_map_cells_is_map =
  QCheck2.Test.make ~count:60 ~name:"map_cells ≡ Array.map for domains 1/2/4"
    ~print:QCheck2.Print.(list int)
    QCheck2.Gen.(list_size (int_range 0 50) (int_range (-1000) 1000))
    (fun xs ->
      let cells = Array.of_list xs in
      let f x = (x * 31) lxor 7 in
      let expect = Array.map f cells in
      List.for_all
        (fun domains -> Par.map_cells ~domains f cells = expect)
        [ 1; 2; 4 ])

(* Cells of uneven cost (a spin proportional to the generated weight),
   so workers interleave their claims; each cell bumps its own run
   counter, which must read exactly 1 afterwards. *)
let spin weight =
  let acc = ref 0 in
  for i = 1 to weight * 2000 do
    acc := !acc + i
  done;
  Sys.opaque_identity !acc

let qc_each_cell_once =
  QCheck2.Test.make ~count:80 ~name:"every cell runs exactly once, uneven costs"
    ~print:QCheck2.Print.(pair int (list int))
    QCheck2.Gen.(pair (oneofl [ 1; 2; 3; 4; 8 ]) (list_size (int_range 0 64) (int_range 0 40)))
    (fun (domains, weights) ->
      let cells = Array.of_list weights in
      let runs = Array.map (fun _ -> Atomic.make 0) cells in
      let value i w = (i * 31) + w in
      let got =
        Par.map_cells ~domains
          (fun (i, w) ->
            Atomic.incr runs.(i);
            ignore (spin w);
            value i w)
          (Array.mapi (fun i w -> (i, w)) cells)
      in
      got = Array.mapi value cells && Array.for_all (fun r -> Atomic.get r = 1) runs)

let exn_propagation () =
  (* all cells still run; the lowest-index failure is re-raised *)
  let n = 8 in
  let ran = Array.make n false in
  List.iter
    (fun failing ->
      let f i =
        ran.(i) <- true;
        if List.mem i failing then failwith (Printf.sprintf "cell %d" i) else i
      in
      let first = Printf.sprintf "cell %d" (List.fold_left min n failing) in
      List.iter
        (fun domains ->
          (match Par.map_cells ~domains f (Array.init n Fun.id) with
          | _ -> Alcotest.fail "expected an exception"
          | exception Failure msg ->
              Alcotest.(check string)
                (Printf.sprintf "lowest-index failure wins at %d domains" domains)
                first msg);
          Alcotest.(check bool) "every cell still ran" true (Array.for_all Fun.id ran);
          Array.fill ran 0 n false)
        [ 1; 2; 4; 8 ])
    [ [ 5; 2 ]; [ 0; n - 1 ]; [ n - 1 ] ]

let resolve_auto () =
  Alcotest.(check int) "resolve keeps explicit counts" 3 (Par.resolve 3);
  let r = Par.resolve 0 in
  Alcotest.(check bool) "0 resolves to recommended() >= 1" true
    (r = Par.recommended () && r >= 1);
  Alcotest.(check int) "negative also resolves" r (Par.resolve (-2))

let stats_cover_cells () =
  List.iter
    (fun (domains, n) ->
      let _, st = Par.map_cells_stats ~domains (fun x -> x + 1) (Array.init n Fun.id) in
      let case = Printf.sprintf "%d domains, %d cells" domains n in
      Alcotest.(check int) (case ^ ": every cell counted") n st.Par.st_cells;
      Alcotest.(check int) (case ^ ": workers") (max 1 (min domains n)) st.Par.st_domains;
      Alcotest.(check int) (case ^ ": no steals") 0 st.Par.st_steals)
    [ (4, 16); (1, 16); (8, 3); (2, 1); (4, 0) ]

(* perfbench's per-domain split and the per-domain first-use state
   (vtable numbering) both rely on this *)
let one_domain_on_caller () =
  let caller = Domain.self () in
  let seen = ref [] in
  let f i =
    seen := (i, Domain.self () = caller) :: !seen;
    i
  in
  let _, st = Par.map_cells_stats ~domains:1 f (Array.init 10 Fun.id) in
  Alcotest.(check (list (pair int bool)))
    "cells 0..9 in order, on the calling domain"
    (List.init 10 (fun i -> (i, true)))
    (List.rev !seen);
  Alcotest.(check int) "one worker" 1 st.Par.st_domains

(* More workers than the runtime lets live at once (128 in OCaml 5.1):
   the cells sleep so every spawned worker is still alive when the
   next spawn is asked for.  Spawning stops at the first refusal and
   the workers already running finish every cell. *)
let beyond_domain_limit () =
  let cells = Array.init 200 Fun.id in
  let got =
    Par.map_cells ~domains:200
      (fun i ->
        Unix.sleepf 0.05;
        i * 2)
      cells
  in
  Alcotest.(check (array int)) "≡ Array.map" (Array.map (fun i -> i * 2) cells) got

(* --- determinism pins: chaos and bench digests --------------------- *)

(* a reduced chaos grid — 2 plans × T2 × both resilience settings —
   keeps the pin fast while still spreading cells across workers *)
let pin_config seed =
  {
    R.Chaos.quick with
    R.Chaos.seed;
    plans =
      List.filter_map Raceguard_faults.Plan.lookup [ "drop"; "oom" ]
      |> (function [] -> R.Chaos.quick.R.Chaos.plans | ps -> ps);
    tests = [ Sip.Workload.t2 ];
  }

let chaos_digest config ~domains =
  R.Chaos.matrix_digest (R.Chaos.run { config with R.Chaos.domains })

let chaos_pin seed () =
  let config = pin_config seed in
  let base = chaos_digest config ~domains:1 in
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d: --domains %d ≡ --domains 1" seed domains)
        base
        (chaos_digest config ~domains))
    [ 2; 4 ]

(* bench-style audit digest: the same per-cell computation the bench
   suite's audit pass does — run a workload under a fresh detector and
   digest the sorted dedup signatures *)
let audit_cell ~seed (tc, cfg) =
  let h = Det.Helgrind.create cfg in
  let vm = Vm.Engine.create ~config:{ Vm.Engine.default_config with seed } () in
  Vm.Engine.add_tool vm (Det.Helgrind.tool h);
  let transport = Sip.Transport.create () in
  ignore
    (Vm.Engine.run vm (fun () ->
         ignore
           (Sip.Workload.run_test_case ~transport
              ~server_config:R.Runner.default.server tc ())));
  Det.Offline.digest_signatures (Det.Helgrind.locations h)

let bench_audit_digests ~seed ~domains =
  let cells =
    [| (Sip.Workload.t2, Det.Helgrind.original);
       (Sip.Workload.t2, Det.Helgrind.hwlc_dr);
       (Sip.Workload.t6, Det.Helgrind.original);
       (Sip.Workload.t6, Det.Helgrind.hwlc_dr) |]
  in
  Par.map_cells ~domains (audit_cell ~seed) cells

let bench_pin seed () =
  let base = bench_audit_digests ~seed ~domains:1 in
  List.iter
    (fun domains ->
      Alcotest.(check (array string))
        (Printf.sprintf "seed %d: audit digests at %d domains" seed domains)
        base
        (bench_audit_digests ~seed ~domains))
    [ 2; 4 ]

let suite =
  ( "par",
    [
      QCheck_alcotest.to_alcotest qc_map_cells_is_map;
      QCheck_alcotest.to_alcotest qc_each_cell_once;
      Alcotest.test_case "exception propagation" `Quick exn_propagation;
      Alcotest.test_case "one domain: caller, index order" `Quick one_domain_on_caller;
      Alcotest.test_case "--domains 0 resolution" `Quick resolve_auto;
      Alcotest.test_case "pool stats cover every cell" `Quick stats_cover_cells;
      Alcotest.test_case "more domains than the runtime allows" `Quick beyond_domain_limit;
      Alcotest.test_case "chaos digest pin, seed 7" `Quick (chaos_pin 7);
      Alcotest.test_case "chaos digest pin, seed 42" `Quick (chaos_pin 42);
      Alcotest.test_case "bench digest pin, seed 7" `Quick (bench_pin 7);
      Alcotest.test_case "bench digest pin, seed 42" `Quick (bench_pin 42);
    ] )
