open Umf_numerics
module Pool = Umf_runtime.Runtime.Pool
module Obs = Umf_obs.Obs

let theta_grid di grid = Optim.Box.sample_grid di.Di.theta grid

(* map [f] over the grid; with a pool the per-θ integrations run on
   the worker domains, but results always come back in grid order so
   downstream folds are bit-identical to the sequential path *)
let map_grid ?pool ?(obs = Obs.off) ~stage di grid f =
  let thetas = Array.of_list (theta_grid di grid) in
  let sp = Obs.span_begin obs "uncertain.sweep" in
  let out =
    match pool with
    | Some p -> Pool.parallel_map ~stage p f thetas
    | None -> Array.map f thetas
  in
  if Obs.enabled obs then begin
    Obs.count obs "uncertain.thetas" (Array.length thetas);
    Obs.span_end
      ~metrics:[ ("thetas", float_of_int (Array.length thetas)) ]
      obs sp
  end;
  out

let transient_envelope ?pool ?obs ?(dt = 1e-2) ?(grid = 21) di ~x0 ~times =
  let m = Array.length times in
  if m = 0 then invalid_arg "Uncertain.transient_envelope: no sample times";
  let horizon = Array.fold_left Float.max 0. times in
  let lower = Array.make m (Vec.create di.Di.dim Float.infinity) in
  let upper = Array.make m (Vec.create di.Di.dim Float.neg_infinity) in
  let sample theta =
    let traj =
      if horizon > 0. then
        Di.integrate_constant ?obs di ~theta ~x0 ~horizon ~dt
      else Ode.Traj.of_arrays [| 0. |] [| Vec.copy x0 |]
    in
    Array.map (Ode.Traj.at traj) times
  in
  let obs_off = match obs with Some o -> not (Obs.enabled o) | None -> true in
  let per_theta =
    match (pool, di.Di.plan, obs_off && horizon > 0.) with
    | None, Some _, true ->
        (* compiled drift, no pool, not tracing: integrate the whole θ
           grid in lockstep — one batched drift evaluation per RK4
           stage instead of one tape call per (θ, stage).  Lanes come
           back in grid order and are bit-identical to the per-θ
           [Di.integrate_constant] loop, so the envelope fold below is
           unchanged.  Tracing keeps the scalar path (it owns the
           per-trajectory ode.integrate spans); a pool keeps the
           per-θ parallel map from PR 2. *)
        let thetas = Array.of_list (theta_grid di grid) in
        let trajs =
          Di.integrate_constant_batch di ~thetas
            ~x0s:(Array.make (Array.length thetas) x0)
            ~horizon ~dt
        in
        Array.map (fun traj -> Array.map (Ode.Traj.at traj) times) trajs
    | _ -> map_grid ?pool ?obs ~stage:"uncertain-sweep" di grid sample
  in
  Array.iter
    (fun samples ->
      Array.iteri
        (fun i x ->
          lower.(i) <- Vec.cmin lower.(i) x;
          upper.(i) <- Vec.cmax upper.(i) x)
        samples)
    per_theta;
  (lower, upper)

let equilibria ?pool ?obs ?(dt = 1e-2) ?(grid = 21) ?(settle_time = 200.) di
    ~x0 =
  let obs_off = match obs with Some o -> not (Obs.enabled o) | None -> true in
  match (pool, di.Di.plan, obs_off) with
  | None, Some _, true ->
      (* batched settle: final states only, in grid order, bit-identical
         to the per-θ [Ode.integrate_to] loop (see transient_envelope) *)
      let thetas = Array.of_list (theta_grid di grid) in
      Array.to_list
        (Di.integrate_to_constant_batch di ~thetas ~x0 ~horizon:settle_time
           ~dt)
  | _ ->
      Array.to_list
        (map_grid ?pool ?obs ~stage:"uncertain-equilibria" di grid
           (fun theta ->
             Ode.integrate_to
               (fun _t x -> di.Di.drift x theta)
               ~t0:0. ~y0:x0 ~t1:settle_time ~dt))

let extremal_coord ?pool ?obs ?(dt = 1e-2) ?(grid = 21) di ~x0 ~coord ~horizon
    =
  if coord < 0 || coord >= di.Di.dim then
    invalid_arg "Uncertain.extremal_coord: coordinate out of range";
  let lower, upper =
    transient_envelope ?pool ?obs ~dt ~grid di ~x0 ~times:[| horizon |]
  in
  (lower.(0).(coord), upper.(0).(coord))
