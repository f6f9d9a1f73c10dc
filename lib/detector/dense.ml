(** Dense tables indexed by word address or tid (DESIGN.md §8): the
    one place they grow and the one place an [E_alloc] sweep is
    bounded.  Callers keep a monomorphic [mutable shadow : cell array]
    and call {!grow} only on the out-of-range branch, so the
    per-access read stays a bounds check and a load. *)

let grow cells i ~floor fresh =
  let n = Array.length cells in
  if i < n then cells
  else
    Array.init
      (max floor (max (2 * n) (i + 1)))
      (fun j -> if j < n then Array.unsafe_get cells j else fresh ())

(* slots past the end were never touched, so they are already fresh:
   the sweep stops at the frontier instead of growing the table *)
let iter_range cells ~addr ~len f =
  for a = addr to min (addr + len - 1) (Array.length cells - 1) do
    f (Array.unsafe_get cells a)
  done
