(* Every matrix this repo runs is an array of independent cells: each
   builds its own VM and tool instances, and the process-wide caches
   (lockset interning, held-lock memos, the metrics registry) are
   domain-local (DESIGN.md §12).  The cells are known up front, coarse
   (whole VM runs) and never create more cells, so a worker only ever
   needs the next index nobody has taken: it claims one with
   [Atomic.fetch_and_add], runs that cell, and returns once no index is
   left.  There is nothing to steal and nothing to wait for. *)

let recommended () = max 1 (Domain.recommended_domain_count () - 1)

let resolve domains = if domains <= 0 then recommended () else domains

type stats = { st_domains : int; st_cells : int; st_steals : int }

(* Start up to [k] domains running [worker], stopping at the first
   spawn the runtime refuses (it caps the domains alive at once): the
   workers already running still claim every cell. *)
let rec spawn k worker =
  if k <= 0 then []
  else
    match Domain.spawn worker with
    | d -> d :: spawn (k - 1) worker
    | exception Failure _ -> []

let map_cells_stats ~domains f cells =
  let n = Array.length cells in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let rec worker () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      results.(i) <-
        Some (match f cells.(i) with v -> Ok v | exception e -> Error (e, Printexc.get_raw_backtrace ()));
      worker ()
    end
  in
  (* worker 0 is the calling domain; at one domain nothing is spawned
     and the caller runs cells 0..n-1 in index order *)
  let spawned = spawn (min (resolve domains) n - 1) worker in
  worker ();
  List.iter Domain.join spawned;
  (* every cell has run; scanning the slots in index order re-raises
     the lowest-index failure *)
  ( Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      results,
    { st_domains = 1 + List.length spawned; st_cells = n; st_steals = 0 } )

let map_cells ~domains f cells = fst (map_cells_stats ~domains f cells)
