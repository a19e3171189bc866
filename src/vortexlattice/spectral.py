"""FFT machinery on an oblique periodic cell.

All fields live on an N x N grid of logical coordinates y in [0,1)^2,
mapped to the cell by x = m @ y where the columns of m are the cell basis
vectors.  Periodic scalar/vector fields are differentiated spectrally;
cartesian derivatives are obtained from the logical ones with the inverse
transpose of m.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np


class HalfSpectrum(NamedTuple):
    """Operators on the rfft2 half spectrum, shape (N, N//2 + 1), of real fields."""

    ig: np.ndarray       # (2, N, N//2 + 1): i g
    dead: np.ndarray     # the g = 0 modes
    gsq: np.ndarray      # |g|^2 with 1 on the dead modes, to divide by
    weights: np.ndarray  # (N//2 + 1,): column weights of the inner product


class CellGrid:
    """Uniform N x N sampling of a parallelogram cell spanned by m[:,0], m[:,1]."""

    def __init__(self, m: np.ndarray, N: int):
        m = np.asarray(m, dtype=float)
        if m.shape != (2, 2):
            raise ValueError("cell matrix must be 2x2")
        if N < 4:
            raise ValueError("grid too small")
        self.m = m
        self.N = int(N)
        self.area = abs(np.linalg.det(m))
        self.minv_t = np.linalg.inv(m).T

    @cached_property
    def y(self) -> tuple[np.ndarray, np.ndarray]:
        """Logical meshgrid (y1, y2), 'ij' indexing, half-open [0,1)."""
        s = np.arange(self.N) / self.N
        return np.meshgrid(s, s, indexing="ij")

    @cached_property
    def x(self) -> tuple[np.ndarray, np.ndarray]:
        """Cartesian meshgrid (x1, x2) of the grid points."""
        y1, y2 = self.y
        x1 = self.m[0, 0] * y1 + self.m[0, 1] * y2
        x2 = self.m[1, 0] * y1 + self.m[1, 1] * y2
        return x1, x2

    @cached_property
    def wavevectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Cartesian wavevectors g = 2*pi*m^{-T} k for FFT-ordered integer modes.

        The unpaired Nyquist modes of an even grid are dropped (set to zero),
        which keeps every first-derivative operator skew-adjoint and the
        vector identities exact on the representable band.
        """
        k = np.fft.fftfreq(self.N, d=1.0 / self.N)
        if self.N % 2 == 0:
            k[self.N // 2] = 0.0
        k1, k2 = np.meshgrid(k, k, indexing="ij")
        g1 = 2 * np.pi * (self.minv_t[0, 0] * k1 + self.minv_t[0, 1] * k2)
        g2 = 2 * np.pi * (self.minv_t[1, 0] * k1 + self.minv_t[1, 1] * k2)
        return g1, g2

    @cached_property
    def gsq(self) -> np.ndarray:
        g1, g2 = self.wavevectors
        return g1 * g1 + g2 * g2

    @cached_property
    def gsq_divisor(self) -> tuple[np.ndarray, np.ndarray]:
        """(dead, divisor): the g = 0 modes, and gsq with 1 on them to divide by."""
        dead = self.gsq == 0
        return dead, np.where(dead, 1.0, self.gsq)

    @cached_property
    def half_spectrum(self) -> HalfSpectrum:
        """i g, the dead modes and the gsq divisor on the columns 0..N//2 that
        rfft2 keeps, sliced from the full spectrum, and the weights w of the
        inner product sum w Re(conj(a) b) of two half spectra.  For real
        fields it equals np.vdot of their full fft2 spectra: w = 2 counts
        each column's conjugate mirror, which the half spectrum leaves out;
        column 0 and, for even N, the Nyquist column N/2 hold their own
        mirrors and get w = 1."""
        half = np.s_[..., : self.N // 2 + 1]
        dead, gsq = self.gsq_divisor
        weights = np.full(self.N // 2 + 1, 2.0)
        weights[0] = 1.0
        if self.N % 2 == 0:
            weights[-1] = 1.0
        return HalfSpectrum(1j * np.stack(self.wavevectors)[half],
                            np.ascontiguousarray(dead[half]),
                            np.ascontiguousarray(gsq[half]), weights)

    # ------------------------------------------------------------------
    # scalar operations (input periodic on the cell)
    # ------------------------------------------------------------------
    def grad(self, f: np.ndarray) -> np.ndarray:
        fh = np.fft.fft2(f)
        g1, g2 = self.wavevectors
        d1 = np.fft.ifft2(1j * g1 * fh)
        d2 = np.fft.ifft2(1j * g2 * fh)
        out = np.stack([d1, d2])
        return out.real if np.isrealobj(f) else out

    def curl_star(self, f: np.ndarray) -> np.ndarray:
        """curl* f = (d2 f, -d1 f) for scalar f."""
        d = self.grad(f)
        return np.stack([d[1], -d[0]])

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        out = np.fft.ifft2(-self.gsq * np.fft.fft2(f))
        return out.real if np.isrealobj(f) else out

    def poisson(self, rhs: np.ndarray, mean_tol: float = 1e-10) -> np.ndarray:
        """Solve Laplace(u) = rhs with <u> = 0 for mean-zero periodic rhs."""
        mean = abs(np.mean(rhs))
        scale = max(np.max(np.abs(rhs)), 1.0)
        if mean > mean_tol * scale:
            raise ValueError(f"poisson rhs has nonzero mean {mean:.3e}")
        fh = np.fft.fft2(rhs)
        dead, gsq = self.gsq_divisor
        uh = -fh / gsq
        uh[dead] = 0.0
        out = np.fft.ifft2(uh)
        return out.real if np.isrealobj(rhs) else out

    # ------------------------------------------------------------------
    # vector operations (v has shape (2, N, N))
    # ------------------------------------------------------------------
    def div(self, v: np.ndarray) -> np.ndarray:
        g1, g2 = self.wavevectors
        out = np.fft.ifft2(1j * g1 * np.fft.fft2(v[0]) + 1j * g2 * np.fft.fft2(v[1]))
        return out.real if np.isrealobj(v) else out

    def curl(self, v: np.ndarray) -> np.ndarray:
        """Scalar curl d1 v2 - d2 v1."""
        g1, g2 = self.wavevectors
        out = np.fft.ifft2(1j * g1 * np.fft.fft2(v[1]) - 1j * g2 * np.fft.fft2(v[0]))
        return out.real if np.isrealobj(v) else out

    def curl_star_curl(self, v: np.ndarray) -> np.ndarray:
        return self.curl_star(self.curl(v))

    def antiderivative(self, v: np.ndarray) -> np.ndarray:
        """Periodic potential p with grad(p) = v - <v>, <p> = 0.

        Requires v curl-free up to spectral tolerance; uses the g-weighted
        least-squares inversion which is exact for gradients.
        """
        g1, g2 = self.wavevectors
        v1h = np.fft.fft2(v[0])
        v2h = np.fft.fft2(v[1])
        dead, gsq = self.gsq_divisor
        ph = (g1 * v1h + g2 * v2h) / (1j * gsq)
        ph[dead] = 0.0
        out = np.fft.ifft2(ph)
        return out.real if np.isrealobj(v) else out

    # ------------------------------------------------------------------
    # resampling
    # ------------------------------------------------------------------
    def resample(self, f: np.ndarray, N_new: int) -> np.ndarray:
        """Trigonometric up/down-sampling of a periodic grid function; acts on
        the last two axes, so (2, N, N) vector fields resample in one call."""
        if N_new == self.N:
            return f.copy()
        axes = (-2, -1)
        fh = np.fft.fftshift(np.fft.fft2(f), axes=axes)
        N = self.N
        if N_new > N:
            out = np.zeros((*f.shape[:-2], N_new, N_new), dtype=complex)
            lo = (N_new - N) // 2
            out[..., lo:lo + N, lo:lo + N] = fh
        else:
            lo = (N - N_new) // 2
            out = fh[..., lo:lo + N_new, lo:lo + N_new].copy()
        out = np.fft.ifft2(np.fft.ifftshift(out, axes=axes)) * (N_new / N) ** 2
        return out.real if np.isrealobj(f) else out

    def shift(self, f: np.ndarray, dy: tuple[float, float]) -> np.ndarray:
        """Evaluate periodic f at y + dy via Fourier translation."""
        k = np.fft.fftfreq(self.N, d=1.0 / self.N)
        k1, k2 = np.meshgrid(k, k, indexing="ij")
        phase = np.exp(2j * np.pi * (k1 * dy[0] + k2 * dy[1]))
        out = np.fft.ifft2(np.fft.fft2(f) * phase)
        return out.real if np.isrealobj(f) else out
