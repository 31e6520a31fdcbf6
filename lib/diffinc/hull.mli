(** Differential hulls (Sec. IV-B, Theorem 4).

    A rectangular over-approximation of the reach set of the
    differential inclusion: two coupled trajectories x̲(t) ≤ x̄(t) such
    that every solution stays coordinate-wise between them.  The hull
    right-hand sides are

    ẋ̲_i = min { f_i(z, θ) : z ∈ [x̲, x̄], z_i = x̲_i, θ ∈ Θ }
    ẋ̄_i = max { f_i(z, θ) : z ∈ [x̲, x̄], z_i = x̄_i, θ ∈ Θ }

    computed by box optimisation (exact for multilinear drifts, where
    the extremum is attained at a box vertex).  Cheap but — as the
    paper shows in Figures 4–5 — increasingly loose as Θ grows. *)

open Umf_numerics

type traj = {
  times : float array;
  lower : Vec.t array;
  upper : Vec.t array;
}

type face_extremum =
  lo:Vec.t -> hi:Vec.t -> coord:int -> value:float -> [ `Min | `Max ] -> float
(** Extremum of the drift coordinate [coord] over the hull face
    {z ∈ [lo, hi] : z_coord = value} × Θ.  The default implementation
    optimises numerically; a symbolic model can supply a certified
    interval-arithmetic bound instead (see {!Certified}). *)

val bounds :
  ?grid:int ->
  ?refine:int ->
  ?check:bool ->
  ?clip:Optim.Box.t ->
  ?face_extremum:face_extremum ->
  ?obs:Umf_obs.Obs.t ->
  Di.t ->
  x0:Vec.t ->
  horizon:float ->
  dt:float ->
  traj
(** Integrate the 2d-dimensional hull system from the degenerate hull
    [x0, x0].  [grid]/[refine] tune the default per-face box
    optimisation (defaults 2 and 8; vertices are always included).
    With the default [grid = 2] the grid adds no candidates beyond the
    vertices: its points are the vertices, up to the rounding of
    [lo + (hi - lo)], and when they match bit for bit the face scan
    evaluates the vertices once.  [grid >= 3] adds interior points.
    [check] (default false) raises [Failure] as soon as a hull bound
    becomes NaN or infinite, reporting the offending time and step —
    the runtime sanitizer the {!Certified} path switches on.
    [clip] bounds the hull inside an invariant state box (e.g. the unit
    simplex box for densities) — without it, hulls that blow up take
    the drift far outside the model's domain.
    [obs] records the ["hull.bounds"] span, the ["hull.steps"] /
    ["hull.face_evals"] counters and the ["hull.final_width"] gauge. *)

val lower_at : traj -> float -> Vec.t

val upper_at : traj -> float -> Vec.t

val contains : ?tol:float -> traj -> float -> Vec.t -> bool
(** Whether a state lies inside the hull rectangle at a given time,
    with [tol] slack per coordinate (default 1e-6): extremal solutions
    lie exactly on the hull boundary, where independent integration
    grids disagree by interpolation error. *)

val final_width : traj -> Vec.t
(** x̄(T) − x̲(T): the looseness of the hull at the end of the
    horizon. *)

val final_certs : ?rounding:float -> traj -> Cert.t array
(** The final-time enclosure of each coordinate as a certificate: the
    hull interval [lower, upper] is itself the certified answer (sound
    whenever the face extrema were, e.g. under {!Certified}'s interval
    arithmetic), outward-widened by [rounding] (default 0; pass
    [Certified.float_error_bound] for the compiled-drift rounding
    budget) on the rounding line. *)

val pp_traj : Format.formatter -> traj -> unit
(** One-line summary (max final width as the result's value,
    integration steps, horizon, dimension) in the uniform format
    shared with {!Pontryagin.pp_result} and {!Birkhoff.pp_result}. *)

val traj_to_string : traj -> string
