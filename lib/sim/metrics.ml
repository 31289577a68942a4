module Histogram = struct
  (* Streaming moments (count, sum, sum of squares, min, max) are
     exact for every sample ever added; order statistics come from a
     bounded reservoir (Vitter's Algorithm R).  Below [cap] samples
     the reservoir holds everything, so small histograms — all the
     existing tests and legacy benches — keep exact quantiles, while
     million-sample fleet runs stay at O(cap) memory. *)
  type t = {
    mutable data : float array;
    mutable len : int;
    mutable sorted : bool;
    cap : int;
    mutable total : int; (* samples ever added (weights included) *)
    mutable tsum : float;
    mutable tmin : float;
    mutable tmax : float;
    rng : Rng.t;
  }

  let default_cap = 65536

  let create ?(cap = default_cap) () =
    {
      data = Array.make 16 0.0;
      len = 0;
      sorted = true;
      cap = Stdlib.max 1 cap;
      total = 0;
      tsum = 0.0;
      tmin = infinity;
      tmax = neg_infinity;
      rng = Rng.create 0x9e3779b97f4a7c15L;
    }

  let append t v =
    if t.len = Array.length t.data then begin
      let fresh = Array.make (Stdlib.min t.cap (2 * t.len)) 0.0 in
      Array.blit t.data 0 fresh 0 t.len;
      t.data <- fresh
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let note t v =
    t.tsum <- t.tsum +. v;
    if v < t.tmin then t.tmin <- v;
    if v > t.tmax then t.tmax <- v

  let add t v =
    t.total <- t.total + 1;
    note t v;
    if t.len < t.cap then append t v
    else begin
      (* Algorithm R: keep with probability cap/total. *)
      let j = Rng.int t.rng t.total in
      if j < t.cap then t.data.(j) <- v
    end;
    t.sorted <- false

  let add_weighted t v ~weight =
    if weight > 0 then begin
      let prev = t.total in
      t.total <- t.total + weight;
      t.tsum <- t.tsum +. (v *. float_of_int weight);
      if v < t.tmin then t.tmin <- v;
      if v > t.tmax then t.tmax <- v;
      (* Fill the reservoir exactly while it has room... *)
      let direct = Stdlib.min weight (t.cap - t.len) in
      for _ = 1 to direct do
        append t v
      done;
      let rest = weight - direct in
      if rest > 0 then begin
        (* ...then approximate the remaining [rest] sequential
           Algorithm R offers by their expected number of reservoir
           insertions, cap * ln((prev+weight)/(prev+direct)), rounding
           stochastically.  All inserted copies are the same value, so
           collapsing the per-offer loop is exact in expectation. *)
        let before = float_of_int (Stdlib.max t.cap (prev + direct)) in
        let after = float_of_int (prev + weight) in
        let expected = float_of_int t.cap *. log (after /. before) in
        let n = int_of_float expected in
        let frac = expected -. float_of_int n in
        let n = if Rng.float t.rng 1.0 < frac then n + 1 else n in
        for _ = 1 to Stdlib.min n t.cap do
          t.data.(Rng.int t.rng t.cap) <- v
        done
      end;
      t.sorted <- false
    end

  let count t = t.total
  let sample_size t = t.len

  let ensure_sorted t =
    if not t.sorted then begin
      let sub = Array.sub t.data 0 t.len in
      Array.sort Float.compare sub;
      Array.blit sub 0 t.data 0 t.len;
      t.sorted <- true
    end

  let sum t = t.tsum
  let mean t = if t.total = 0 then nan else t.tsum /. float_of_int t.total
  let min t = if t.total = 0 then nan else t.tmin
  let max t = if t.total = 0 then nan else t.tmax

  let quantile t q =
    ensure_sorted t;
    if t.len = 0 then nan
    else if t.len = 1 then t.data.(0)
    else begin
      let q = Float.min 1.0 (Float.max 0.0 q) in
      let pos = q *. float_of_int (t.len - 1) in
      let lo = int_of_float (Float.floor pos) in
      let hi = Stdlib.min (lo + 1) (t.len - 1) in
      let frac = pos -. float_of_int lo in
      t.data.(lo) +. (frac *. (t.data.(hi) -. t.data.(lo)))
    end

  let cdf_at t v =
    ensure_sorted t;
    if t.len = 0 then nan
    else begin
      (* Count of samples <= v by binary search for the upper bound. *)
      let rec search lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if t.data.(mid) <= v then search (mid + 1) hi else search lo mid
      in
      float_of_int (search 0 t.len) /. float_of_int t.len
    end
end

module Counter = struct
  type t = { mutable n : int }

  let create () = { n = 0 }
  let incr ?(by = 1) t = t.n <- t.n + by
  let value t = t.n
  let reset t = t.n <- 0
end

module Series = struct
  type bucket = { mutable sum : float; mutable n : int }

  type t = { width : float; table : (int, bucket) Hashtbl.t }

  let create ~bucket_width =
    assert (bucket_width > 0.0);
    { width = bucket_width; table = Hashtbl.create 64 }

  let add t ~time v =
    let idx = int_of_float (Float.floor (time /. t.width)) in
    match Hashtbl.find_opt t.table idx with
    | Some b ->
        b.sum <- b.sum +. v;
        b.n <- b.n + 1
    | None -> Hashtbl.replace t.table idx { sum = v; n = 1 }

  let sorted_range t =
    let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.table [] in
    match List.sort Int.compare keys with
    | [] -> None
    | first :: _ as keys -> Some (first, List.fold_left Stdlib.max first keys)

  let dense t extract =
    match sorted_range t with
    | None -> [||]
    | Some (lo, hi) ->
        Array.init (hi - lo + 1) (fun i ->
            let idx = lo + i in
            let start = float_of_int idx *. t.width in
            match Hashtbl.find_opt t.table idx with
            | Some b -> start, extract b
            | None -> start, extract { sum = 0.0; n = 0 })

  let buckets t = dense t (fun b -> b.sum)

  let counts t =
    match sorted_range t with
    | None -> [||]
    | Some (lo, hi) ->
        Array.init (hi - lo + 1) (fun i ->
            let idx = lo + i in
            let start = float_of_int idx *. t.width in
            match Hashtbl.find_opt t.table idx with
            | Some b -> start, b.n
            | None -> start, 0)

  let means t =
    let all = dense t (fun b -> if b.n = 0 then nan else b.sum /. float_of_int b.n) in
    Array.of_list
      (List.filter (fun (_, m) -> not (Float.is_nan m)) (Array.to_list all))
end
