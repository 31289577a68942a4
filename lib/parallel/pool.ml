(* A small domain pool for the landing path: deterministic fan-out of
   independent work items across OCaml 5 domains.

   Work distribution is a single atomic next-index counter
   (fetch-and-add), so domains self-balance across items of uneven
   cost without any queue or lock; each result is written into the
   output slot of its item, so the output order is the input order no
   matter which domain finished first or last.  That slot discipline
   is what lets callers (the compile fan-out, verify, CI checks)
   promise output that is bit-identical at any domain count.  Workers
   share nothing else: callers hand them read-only inputs and make
   their writes after the join.

   A pool of [domains = 1] — and any call whose item count is 1 —
   runs entirely inline on the caller's domain: no spawn, no atomics.
   That is what lets the landing path have one code path: a 1-domain
   pool is how it runs sequentially.

   A pool never has more domains than the host has cores: a domain
   beyond them only time-slices a core with the others, and every
   minor GC then waits for a descheduled domain. *)

type t = { domains : int }

let create ?(domains = 1) () =
  { domains = max 1 (min domains (Domain.recommended_domain_count ())) }

let domains t = t.domains
let recommended_domains () = Domain.recommended_domain_count ()

let map_array t f items =
  let n = Array.length items in
  let workers = min t.domains n in
  if workers <= 1 then Array.map f items
  else begin
    let out = Array.make n None in
    let next = Atomic.make 0 in
    let failed = Atomic.make None in
    let worker () =
      try
        let running = ref true in
        while !running do
          let i = Atomic.fetch_and_add next 1 in
          if i >= n || Atomic.get failed <> None then running := false
          else out.(i) <- Some (f items.(i))
        done
      with exn -> ignore (Atomic.compare_and_set failed None (Some exn))
    in
    (* The caller's domain is worker 0; only [workers - 1] domains are
       spawned. *)
    let spawned = List.init (workers - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join spawned;
    Option.iter raise (Atomic.get failed);
    Array.map (function Some v -> v | None -> assert false (* every slot filled *)) out
  end

let map_list t f items = Array.to_list (map_array t f (Array.of_list items))
