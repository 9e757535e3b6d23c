"""Tensor tomography of small residual stresses in elastic media.

Subpackages by pipeline stage:

- fields: grids, symmetric 2-tensor fields, spectral tensor calculus
- material: coupling tensors, wave weights, solvability checks
- geometry: straight ray families, geodesics with transported frames
- forward: family ray transforms, the adjoint K*, the Rytov propagator
- inversion: Fourier-slice and CG reconstructions, trace detangling
- io: on-disk formats (fields, sinograms, manifests, reports)
- cli: the ``stresstomo`` command-line entry point
"""

__version__ = "0.1.0"
