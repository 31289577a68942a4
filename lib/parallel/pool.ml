(* A small domain pool for the landing path: deterministic fan-out of
   independent work items across OCaml 5 domains.

   Work distribution is a single atomic next-index counter
   (fetch-and-add), so domains self-balance across items of uneven
   cost without any queue or lock; each result is written into the
   output slot of its item, so the output order is the input order no
   matter which domain finished first or last.  That slot discipline
   is what lets callers (compile levels, verify fan-out, CI checks)
   promise output that is bit-identical at any domain count.

   A pool of [domains = 1] — and any call whose item count is 1 —
   runs entirely inline on the caller's domain: no spawn, no atomics
   beyond the ones already in the code path.  That is what lets the
   landing path have one code path: a 1-domain pool is how it runs
   sequentially.

   Worker-local state ([map_local]) exists for counter blocks: each
   domain accumulates statistics privately and the caller merges them
   after the join, in worker order, so shared counters are only ever
   touched by one domain at a time. *)

type t = { domains : int }

let create ?(domains = 1) () = { domains = max 1 domains }
let domains t = t.domains
let recommended_domains () = Domain.recommended_domain_count ()

let map_local (t : t) ~(local : unit -> 's) ~(f : 's -> 'a -> 'b)
    ~(merge : 's -> unit) (items : 'a array) : 'b array =
  let n = Array.length items in
  if n = 0 then [||]
  else begin
    let workers = min t.domains n in
    if workers <= 1 then begin
      let state = local () in
      let out = Array.map (f state) items in
      merge state;
      out
    end
    else begin
      let out = Array.make n None in
      let next = Atomic.make 0 in
      let failed : exn option Atomic.t = Atomic.make None in
      let worker () =
        let state = local () in
        (try
           let running = ref true in
           while !running do
             let i = Atomic.fetch_and_add next 1 in
             if i >= n || Atomic.get failed <> None then running := false
             else out.(i) <- Some (f state items.(i))
           done
         with exn -> ignore (Atomic.compare_and_set failed None (Some exn)));
        state
      in
      (* The caller's domain is worker 0; only [workers - 1] domains
         are spawned.  Its [worker ()] is bound before any join — the
         arguments of [::] evaluate right to left, so inlining it in
         the cons would leave the caller blocked on the joins. *)
      let spawned = List.init (workers - 1) (fun _ -> Domain.spawn worker) in
      let own = worker () in
      let states = own :: List.map Domain.join spawned in
      (match Atomic.get failed with
      | Some exn -> raise exn
      | None -> ());
      (* Join point: merge worker-local state on the caller's domain,
         in worker order. *)
      List.iter merge states;
      Array.map
        (function Some v -> v | None -> assert false (* every slot filled *))
        out
    end
  end

let map_array t f items =
  map_local t ~local:(fun () -> ()) ~f:(fun () x -> f x) ~merge:ignore items

let map_list t f items = Array.to_list (map_array t f (Array.of_list items))
