open Umf_numerics
module Obs = Umf_obs.Obs

type traj = {
  times : float array;
  lower : Vec.t array;
  upper : Vec.t array;
}

(* extremise f_i over the face {z in [lo, hi] : z_i = v} x Theta *)
let face_extremum ~grid ~refine di ~lo ~hi ~coord ~v sense =
  let d = di.Di.dim in
  let face_lo = Vec.copy lo and face_hi = Vec.copy hi in
  face_lo.(coord) <- v;
  face_hi.(coord) <- v;
  let joint =
    Optim.Box.make
      (Array.append face_lo di.Di.theta.Optim.Box.lo)
      (Array.append face_hi di.Di.theta.Optim.Box.hi)
  in
  let f_i z =
    let x = Array.sub z 0 d in
    let theta = Array.sub z d (Array.length z - d) in
    (di.Di.drift x theta).(coord)
  in
  match sense with
  | `Min -> snd (Optim.minimize_box ~grid ~refine_iters:refine f_i joint)
  | `Max -> snd (Optim.maximize_box ~grid ~refine_iters:refine f_i joint)

type face_extremum =
  lo:Vec.t -> hi:Vec.t -> coord:int -> value:float -> [ `Min | `Max ] -> float

(* All 2d face-extremum problems of one hull step, solved together
   against the drift's batch plan: the 2d minimize_box/maximize_box
   candidate scans concatenate into ONE batched drift evaluation, and
   the follow-up coordinate descents run in lockstep across faces (one
   batched evaluation per probe wave — plus first, then minus, exactly
   the scalar probe order).  Candidate order, the keep-first fold rule,
   the radius schedule, the 1e-15 bounds slack and the
   strict-improvement accept test all transcribe [Optim.minimize_box] /
   [Optim.coordinate_refine], and the batch kernel is bit-identical to
   the scalar tape — so each face value equals its scalar
   [face_extremum] twin bitwise.

   [face_scanner] owns the buffers of one [bounds] call: the candidate
   rows (kept while a step needs the same row count) and the probe
   rows, where row j always holds face j's probe, reused by every wave
   of every RHS evaluation.  Rows of inactive probes keep stale values;
   they are evaluated with the rest and ignored. *)
let face_scanner ~grid ~refine di plan =
  let d = di.Di.dim in
  let th = di.Di.theta in
  let thd = Optim.Box.dim th in
  let jd = d + thd in
  let nf = 2 * d in
  let tc = Stdlib.max 1 thd in
  let cand = ref (Mat.zeros 0 d, Mat.zeros 0 tc, Mat.zeros 0 d) in
  let cand_bufs rows =
    let ((xs, _, _) as bufs) = !cand in
    if Mat.rows xs = rows then bufs
    else begin
      cand := (Mat.zeros rows d, Mat.zeros rows tc, Mat.zeros rows d);
      !cand
    end
  in
  let pxs = Mat.zeros nf d and pths = Mat.zeros nf tc in
  let pvals = Mat.zeros nf d in
  (* face j < d minimises f_(j) on {z_j = lo_j}; face j >= d maximises
     f_(j-d) on {z_(j-d) = hi_(j-d)}, as a minimisation of -f.  Face j's
     box is [flo.(j), fhi.(j)]; its best point and value so far are
     [best.(j)] and [best_f.(j)]. *)
  let flo = Array.make_matrix nf jd 0. and fhi = Array.make_matrix nf jd 0. in
  let best = Array.make_matrix nf jd 0. and best_f = Array.make nf Float.nan in
  let signed j raw = if j < d then raw else -.raw in
  let same_bits a b =
    Array.length a = Array.length b
    && Array.for_all2
         (fun x y ->
           Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
         a b
  in
  let count axes = Array.fold_left (fun n ax -> n * Array.length ax) 1 axes in
  (* rows [r, r + count axes) of (xs, ths) := the product of the face's
     axes, last axis fastest — the order of [Optim.Box.vertices] and
     [Optim.Box.sample_grid] *)
  let fill_product xs ths axes r =
    let xd = Mat.data xs and td = Mat.data ths in
    let n = count axes in
    let idx = Array.make jd 0 in
    for row = r to r + n - 1 do
      for i = 0 to d - 1 do
        xd.((row * d) + i) <- axes.(i).(idx.(i))
      done;
      for i = 0 to thd - 1 do
        td.((row * tc) + i) <- axes.(d + i).(idx.(d + i))
      done;
      let i = ref (jd - 1) in
      while
        !i >= 0
        &&
        (idx.(!i) <- idx.(!i) + 1;
         idx.(!i) = Array.length axes.(!i))
      do
        idx.(!i) <- 0;
        decr i
      done
    done;
    r + n
  in
  let write_probe j =
    let b = best.(j) in
    for i = 0 to d - 1 do
      Mat.set pxs j i b.(i)
    done;
    for i = 0 to thd - 1 do
      Mat.set pths j i b.(d + i)
    done
  in
  fun ~lo ~hi ->
    for j = 0 to nf - 1 do
      let coord = j mod d in
      let v = if j < d then lo.(coord) else hi.(coord) in
      for i = 0 to jd - 1 do
        flo.(j).(i) <- (if i < d then lo.(i) else th.Optim.Box.lo.(i - d));
        fhi.(j).(i) <- (if i < d then hi.(i) else th.Optim.Box.hi.(i - d))
      done;
      flo.(j).(coord) <- v;
      fhi.(j).(coord) <- v
    done;
    (* candidate scan: vertices, then the factorial grid unless it
       repeats the vertex rows bit for bit (with grid = 2 and exact
       linspace endpoints it does).  The keep-first fold over [V; V]
       picks the same row as over V: after its last NaN the fold is a
       first-minimum search, and that suffix is the same in both. *)
    let scans =
      Array.init nf (fun j ->
          let lo = flo.(j) and hi = fhi.(j) in
          let vax =
            Array.init jd (fun i -> Optim.Box.axis_vertices lo.(i) hi.(i))
          and gax =
            Array.init jd (fun i -> Optim.Box.axis_grid grid lo.(i) hi.(i))
          in
          if Array.for_all2 same_bits vax gax then [ vax ] else [ vax; gax ])
    in
    let rows =
      Array.fold_left
        (List.fold_left (fun acc axes -> acc + count axes))
        0 scans
    in
    let xs, ths, vals = cand_bufs rows in
    (* face j's rows end at ends.(j) *)
    let ends = Array.make nf 0 and r = ref 0 in
    Array.iteri
      (fun j axess ->
        List.iter (fun axes -> r := fill_product xs ths axes !r) axess;
        ends.(j) <- !r)
      scans;
    Tape.Plan.run_batch plan ~xs ~ths ~out:vals;
    let start = ref 0 in
    for j = 0 to nf - 1 do
      let coord = j mod d in
      let br = ref !start and bf = ref (signed j (Mat.get vals !start coord)) in
      for r = !start + 1 to ends.(j) - 1 do
        let fx = signed j (Mat.get vals r coord) in
        if not (!bf <= fx) then begin
          br := r;
          bf := fx
        end
      done;
      for i = 0 to d - 1 do
        best.(j).(i) <- Mat.get xs !br i
      done;
      for i = 0 to thd - 1 do
        best.(j).(d + i) <- Mat.get ths !br i
      done;
      best_f.(j) <- !bf;
      start := ends.(j)
    done;
    (* lockstep coordinate descent: the wave over faces of one (sweep,
       coordinate, direction) probe *)
    let probe = Array.make nf Float.nan and active = Array.make nf false in
    let radius = ref 0.25 in
    for _ = 1 to refine do
      for i = 0 to jd - 1 do
        List.iter
          (fun dir ->
            let any = ref false in
            for j = 0 to nf - 1 do
              active.(j) <- false;
              let blo = flo.(j).(i) and bhi = fhi.(j).(i) in
              let span = bhi -. blo in
              if span > 0. then begin
                let step = !radius *. span in
                let v = best.(j).(i) +. (dir *. step) in
                if v >= blo -. 1e-15 && v <= bhi +. 1e-15 then begin
                  probe.(j) <- Float.min bhi (Float.max blo v);
                  active.(j) <- true;
                  any := true;
                  write_probe j;
                  if i < d then Mat.set pxs j i probe.(j)
                  else Mat.set pths j (i - d) probe.(j)
                end
              end
            done;
            if !any then begin
              Tape.Plan.run_batch plan ~xs:pxs ~ths:pths ~out:pvals;
              for j = 0 to nf - 1 do
                if active.(j) then begin
                  let fc = signed j (Mat.get pvals j (j mod d)) in
                  if fc < best_f.(j) then begin
                    best.(j).(i) <- probe.(j);
                    best_f.(j) <- fc
                  end
                end
              done
            end)
          [ 1.; -1. ]
      done;
      radius := !radius *. 0.7
    done;
    Array.init nf (fun j -> signed j best_f.(j))

let bounds ?(grid = 2) ?(refine = 8) ?(check = false) ?clip
    ?face_extremum:custom ?(obs = Obs.off) di ~x0 ~horizon ~dt =
  if horizon < 0. then invalid_arg "Hull.bounds: negative horizon";
  if dt <= 0. then invalid_arg "Hull.bounds: dt <= 0";
  if Vec.dim x0 <> di.Di.dim then invalid_arg "Hull.bounds: x0 dimension";
  let on = Obs.enabled obs in
  let sp = Obs.span_begin obs "hull.bounds" in
  let d = di.Di.dim in
  let extremum =
    match custom with
    | Some f -> f
    | None ->
        fun ~lo ~hi ~coord ~value sense ->
          face_extremum ~grid ~refine di ~lo ~hi ~coord ~v:value sense
  in
  let face_evals = ref 0 in
  let extremum =
    if on then fun ~lo ~hi ~coord ~value sense ->
      incr face_evals;
      extremum ~lo ~hi ~coord ~value sense
    else extremum
  in
  (* hull state z = (lower, upper) of dimension 2d *)
  let rhs =
    match (custom, di.Di.plan) with
    | None, Some plan ->
        (* compiled drift: solve all 2d faces per step in batch
           (bit-identical to the scalar per-face path) *)
        let scan = face_scanner ~grid ~refine di plan in
        fun _t z ->
          let lo = Array.sub z 0 d and hi = Array.sub z d d in
          let lo' = Vec.cmin lo hi and hi' = Vec.cmax lo hi in
          if on then face_evals := !face_evals + (2 * d);
          scan ~lo:lo' ~hi:hi'
    | _ ->
        fun _t z ->
          let lo = Array.sub z 0 d and hi = Array.sub z d d in
          (* the hull can momentarily invert by integration error; repair *)
          let lo' = Vec.cmin lo hi and hi' = Vec.cmax lo hi in
          Array.init (2 * d) (fun j ->
              if j < d then
                extremum ~lo:lo' ~hi:hi' ~coord:j ~value:lo'.(j) `Min
              else
                let coord = j - d in
                extremum ~lo:lo' ~hi:hi' ~coord ~value:hi'.(coord) `Max)
  in
  let clip_state z =
    match clip with
    | None -> z
    | Some box ->
        Array.init (2 * d) (fun j ->
            let i = if j < d then j else j - d in
            Float.min box.Optim.Box.hi.(i) (Float.max box.Optim.Box.lo.(i) z.(j)))
  in
  let z0 = Array.append (Vec.copy x0) (Vec.copy x0) in
  let steps = Stdlib.max 1 (int_of_float (Float.ceil (horizon /. dt))) in
  let h = if horizon > 0. then horizon /. float_of_int steps else 0. in
  let times = Array.make (steps + 1) 0. in
  let lower = Array.make (steps + 1) (Vec.copy x0) in
  let upper = Array.make (steps + 1) (Vec.copy x0) in
  let check_state i z =
    if check then
      Array.iteri
        (fun j v ->
          if not (Float.is_finite v) then
            failwith
              (Printf.sprintf
                 "Hull.bounds: non-finite %s bound (coordinate %d = %g) at t \
                  = %g, step %d"
                 (if j < d then "lower" else "upper")
                 (j mod d) v
                 (float_of_int i *. h)
                 i))
        z
  in
  let z = ref (clip_state z0) in
  check_state 0 !z;
  for i = 1 to steps do
    z := clip_state (Ode.rk4_step rhs 0. !z h);
    check_state i !z;
    (* enforce the hull ordering after each step *)
    let lo = Array.sub !z 0 d and hi = Array.sub !z d d in
    let lo' = Vec.cmin lo hi and hi' = Vec.cmax lo hi in
    times.(i) <- float_of_int i *. h;
    lower.(i) <- lo';
    upper.(i) <- hi';
    z := Array.append lo' hi'
  done;
  if on then begin
    Obs.count obs "hull.steps" steps;
    Obs.count obs "hull.face_evals" !face_evals;
    let width = Vec.norm_inf (Vec.sub upper.(steps) lower.(steps)) in
    Obs.gauge obs "hull.final_width" width;
    Obs.span_end
      ~metrics:
        [
          ("steps", float_of_int steps);
          ("face_evals", float_of_int !face_evals);
          ("final_width", width);
        ]
      obs sp
  end;
  { times; lower; upper }

let locate times t =
  let n = Array.length times in
  if t <= times.(0) then 0
  else if t >= times.(n - 1) then n - 1
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if times.(mid) <= t then lo := mid else hi := mid
    done;
    !lo
  end

let interp times arr t =
  let n = Array.length times in
  if t <= times.(0) then Vec.copy arr.(0)
  else if t >= times.(n - 1) then Vec.copy arr.(n - 1)
  else begin
    let i = locate times t in
    let s = (t -. times.(i)) /. (times.(i + 1) -. times.(i)) in
    Vec.lerp arr.(i) arr.(i + 1) s
  end

let lower_at h t = interp h.times h.lower t

let upper_at h t = interp h.times h.upper t

let contains ?(tol = 1e-6) h t x =
  let slack = Vec.create (Vec.dim x) tol in
  Vec.le (Vec.sub (lower_at h t) slack) x
  && Vec.le x (Vec.add (upper_at h t) slack)

let final_width h =
  let n = Array.length h.times in
  Vec.sub h.upper.(n - 1) h.lower.(n - 1)

let pp_traj ppf h =
  let n = Array.length h.times in
  let width = final_width h in
  Format.fprintf ppf
    "@[hull: value %.6g (max final width), %d iteration%s, horizon %g, dim %d@]"
    (Vec.norm_inf width) (n - 1)
    (if n - 1 = 1 then "" else "s")
    h.times.(n - 1) (Vec.dim h.lower.(0))

let traj_to_string h = Format.asprintf "%a" pp_traj h

let final_certs ?(rounding = 0.) tr =
  let last = Array.length tr.times - 1 in
  Array.init
    (Vec.dim tr.lower.(last))
    (fun i ->
      Cert.widen ~rounding
        (Cert.of_interval
           (Interval.make tr.lower.(last).(i) tr.upper.(last).(i))))
