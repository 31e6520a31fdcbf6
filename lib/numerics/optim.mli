(** Scalar and box-constrained optimisation.

    Scalar minimisers (golden section, Brent) for robust-tuning sweeps,
    and box minimisers/maximisers used by the differential-hull method
    and by Pontryagin's arg-max when the drift is not affine in θ. *)

val golden_section_min :
  ?tol:float -> ?max_iter:int -> (float -> float) -> float -> float -> float * float
(** [golden_section_min f a b] minimises a unimodal [f] on [a, b];
    returns [(x, f x)]. *)

val brent_min :
  ?tol:float -> ?max_iter:int -> (float -> float) -> float -> float -> float * float
(** Brent's method (golden section + parabolic interpolation). *)

val grid_min_1d : (float -> float) -> float -> float -> int -> float * float
(** Evaluate on an [n]-point grid, return the best point. *)

(** Axis-aligned boxes in R^n. *)
module Box : sig
  type t = { lo : Vec.t; hi : Vec.t }

  val make : Vec.t -> Vec.t -> t
  (** @raise Invalid_argument unless [lo <= hi] component-wise with
      equal dimensions. *)

  val of_intervals : Interval.t list -> t

  val dim : t -> int

  val mem : Vec.t -> t -> bool

  val midpoint : t -> Vec.t

  val vertices : t -> Vec.t list
  (** All [2^n] corner points (degenerate coordinates collapse), in
      lexicographic order of the {!axis_vertices}, last axis fastest. *)

  val sample_grid : t -> int -> Vec.t list
  (** Full factorial grid with [k] points per dimension, in
      lexicographic order of the {!axis_grid}, last axis fastest. *)

  val axis_vertices : float -> float -> float array
  (** The values one axis [[lo, hi]] contributes to {!vertices}:
      [[|lo|]] when [lo = hi], else [[|lo; hi|]]. *)

  val axis_grid : int -> float -> float -> float array
  (** The [k] values one axis [[lo, hi]] contributes to {!sample_grid}:
      the clamped midpoint when [lo = hi] or [k = 1], else
      [Vec.linspace lo hi k].
      @raise Invalid_argument if [k < 1]. *)

  val sample_uniform : Rng.t -> t -> Vec.t

  val clamp : t -> Vec.t -> Vec.t
end

val coordinate_refine : (Vec.t -> float) -> Box.t -> Vec.t -> int -> Vec.t * float
(** [coordinate_refine f box x0 iters]: the shrinking coordinate
    descent {!minimize_box} runs from its best candidate — exposed so
    batched callers can replay the candidate scan themselves and still
    finish with the identical refinement.  Probes [x ± r·span] per
    coordinate, radius r starting at 0.25 and shrinking by 0.7 per
    sweep; accepts strictly improving points only. *)

val minimize_box :
  ?grid:int ->
  ?refine_iters:int ->
  (Vec.t -> float) ->
  Box.t ->
  Vec.t * float
(** Minimise [f] over a box: evaluate all vertices and a [grid]-per-axis
    factorial grid (default 3), then refine the best point by
    shrinking coordinate descent ([refine_iters] sweeps, default 40).
    Exact for multilinear [f] (the minimum is at a vertex); a heuristic
    otherwise. *)

val maximize_box :
  ?grid:int ->
  ?refine_iters:int ->
  (Vec.t -> float) ->
  Box.t ->
  Vec.t * float

val argmax_vertices : (Vec.t -> float) -> Box.t -> Vec.t * float
(** Maximum over the box vertices only — exact arg max for functions
    affine in each coordinate (e.g. Hamiltonians of drifts affine in
    θ). *)

val nelder_mead :
  ?tol:float ->
  ?max_iter:int ->
  ?scale:float ->
  (Vec.t -> float) ->
  Vec.t ->
  Vec.t * float
(** Unconstrained Nelder–Mead simplex descent started at the given
    point. *)
