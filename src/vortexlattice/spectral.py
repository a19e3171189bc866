"""Fourier transforms and spectral operators on an oblique periodic cell.

All fields live on an N x N grid of logical coordinates y in [0,1)^2,
mapped to the cell by x = m @ y where the columns of m are the cell basis
vectors.  Periodic scalar/vector fields are differentiated spectrally;
cartesian derivatives are obtained from the logical ones with the inverse
transpose of m.  The fields are real: every operator works on their rfft2
half spectrum (N, N//2 + 1), a vector field's two components in one stacked
transform, and a complex field raises TypeError.  On a grid of side up to
DFT_MATRIX_MAX_N the transforms are products with DFT matrices built once per
grid, which at that size cost less than numpy's FFT calls; above it numpy's
FFT runs.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

GRID_MIN_N = 4      # the smallest grid side a CellGrid takes
# the largest grid side transformed by DFT matrices: a stacked (2, N, N)
# rfft2/irfft2 pair costs less as matrix products up to N = 48 and more from
# N = 56 (one BLAS thread, numpy 2 pocketfft)
DFT_MATRIX_MAX_N = 48


class HalfSpectrum(NamedTuple):
    """Operators on the rfft2 half spectrum, shape (N, N//2 + 1), of real fields."""

    ig: np.ndarray       # (2, N, N//2 + 1): i g
    dead: np.ndarray     # the g = 0 modes
    gsq: np.ndarray      # |g|^2 with 1 on the dead modes, to divide by
    weights: np.ndarray  # (N//2 + 1,): column weights of the inner product


def _bin_labels(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Signed frequencies k of the FFT bins of an N grid, and -k of each bin's
    conjugate mirror: they differ only at the Nyquist bin of an even N,
    labelled -N/2 with the mirror +N/2."""
    k = (np.arange(N) + N // 2) % N - N // 2
    return k, -k[-np.arange(N)]


class CellGrid:
    """Uniform N x N sampling of a parallelogram cell spanned by m[:,0], m[:,1]."""

    def __init__(self, m: np.ndarray, N: int):
        m = np.asarray(m, dtype=float)
        if m.shape != (2, 2):
            raise ValueError("cell matrix must be 2x2")
        if N < GRID_MIN_N:
            raise ValueError("grid too small")
        self.m = m
        self.N = int(N)
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
    def half_spectrum(self) -> HalfSpectrum:
        """i g for the cartesian wavevectors g = 2*pi*m^{-T} k of the modes
        k1 in FFT order and 0 <= k2 <= N//2 that rfft2 keeps, the dead modes
        g = 0, the |g|^2 divisor, and the weights w of the inner product
        sum w Re(conj(a) b) of two half spectra.

        The unpaired Nyquist modes of an even grid get k = 0, which keeps
        every first-derivative operator skew-adjoint and the vector
        identities exact on the representable band.  For real fields the
        inner product equals np.vdot of their full fft2 spectra: w = 2 counts
        each column's conjugate mirror, which the half spectrum leaves out;
        column 0 and, for even N, the Nyquist column N/2 hold their own
        mirrors and get w = 1."""
        N = self.N
        k = np.fft.fftfreq(N, d=1.0 / N)
        if N % 2 == 0:
            k[N // 2] = 0.0
        k1, k2 = np.meshgrid(k, k[: N // 2 + 1], indexing="ij")
        mt = self.minv_t
        g = 2 * np.pi * np.stack([mt[0, 0] * k1 + mt[0, 1] * k2,
                                  mt[1, 0] * k1 + mt[1, 1] * k2])
        gsq = g[0] * g[0] + g[1] * g[1]
        dead = gsq == 0
        weights = np.where(2 * np.arange(N // 2 + 1) % N == 0, 1.0, 2.0)
        return HalfSpectrum(1j * g, dead, np.where(dead, 1.0, gsq), weights)

    @cached_property
    def _dft(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """DFT matrices of the grid, C = N//2 + 1, the phases k j reduced mod
        N exactly: the full W[k, j] = exp(-2 pi i k j / N) and its inverse
        conj(W), the real (N, 2 C) rfft along the last axis, whose columns
        2k, 2k+1 give the real and imaginary parts of bin k, and the real
        (2 C, N) irfft of an interleaved half spectrum with the 1/N^2 of
        irfft2, which reads column k with its inner-product weight and only
        the real part of the self-mirrored columns 0 and N/2, as irfft
        does."""
        N, C = self.N, self.N // 2 + 1
        j = np.arange(N)
        full = np.exp(-2j * np.pi / N * (j[:, None] * j[None, :] % N))
        half = full[:, :C]
        rfft = np.stack([half.real, half.imag], axis=-1).reshape(N, 2 * C)
        irfft = (self.half_spectrum.weights[:, None, None] / N**2
                 * np.stack([half.real.T, half.imag.T], axis=1))
        irfft[2 * np.arange(C) % N == 0, 1] = 0.0
        return full, np.conj(full), rfft, irfft.reshape(2 * C, N)

    def _spectrum(self, f: np.ndarray) -> np.ndarray:
        """rfft2 of a real field over its last two axes.  By matrices, the
        mean goes through its own bin: f - sum/N^2 is transformed and the sum
        added at bin 0, so a constant field has no other bin."""
        if np.iscomplexobj(f):
            raise TypeError("CellGrid operators take real fields; transform the "
                            "real and imaginary parts separately")
        if self.N > DFT_MATRIX_MAX_N:
            return np.fft.rfft2(f)
        full, _, rfft, _ = self._dft
        total = np.add.reduce(f, axis=(-2, -1), keepdims=True)
        fh = full @ ((f - total / self.N**2) @ rfft).view(complex)
        fh[..., :1, :1] += total
        return fh

    def _field(self, fh: np.ndarray) -> np.ndarray:
        """The real field on this grid of a half spectrum.  By matrices, bin
        0 alone gives an exact constant: its column of conj(W) is 1 and its
        irfft row 1/N^2."""
        if self.N > DFT_MATRIX_MAX_N:
            return np.fft.irfft2(fh, s=(self.N, self.N))
        _, inverse, _, irfft = self._dft
        return (inverse @ fh).view(float) @ irfft

    # ------------------------------------------------------------------
    # scalar operations (input periodic on the cell)
    # ------------------------------------------------------------------
    def grad(self, f: np.ndarray) -> np.ndarray:
        return self._field(self.half_spectrum.ig * self._spectrum(f))

    # ------------------------------------------------------------------
    # vector operations (v has shape (2, N, N))
    # ------------------------------------------------------------------
    def div(self, v: np.ndarray) -> np.ndarray:
        return self._field((self.half_spectrum.ig * self._spectrum(v)).sum(axis=0))

    def curl(self, v: np.ndarray) -> np.ndarray:
        """Scalar curl d1 v2 - d2 v1."""
        return self._field(self._curl_hat(v))

    def antiderivative(self, v: np.ndarray) -> np.ndarray:
        """The mean-zero periodic potential p of the gradient part of v: in
        the Helmholtz split v = <v> + grad p + curl* phi, grad p is the
        g-parallel part of each mode, so grad p = v - <v> when v is
        curl-free."""
        ig, dead, gsq, _ = self.half_spectrum
        return self._field(np.where(dead, 0.0, -1.0 / gsq)
                           * (ig * self._spectrum(v)).sum(axis=0))

    def _curl_hat(self, v: np.ndarray) -> np.ndarray:
        """Half spectrum of curl v = d1 v2 - d2 v1."""
        ig = self.half_spectrum.ig
        vh = self._spectrum(v)
        return ig[0] * vh[1] - ig[1] * vh[0]

    def _curl_star_of(self, fh: np.ndarray) -> np.ndarray:
        """curl* f = (d2 f, -d1 f) from the half spectrum of f."""
        d = self._field(self.half_spectrum.ig[::-1] * fh)
        d[1] *= -1.0
        return d

    # ------------------------------------------------------------------
    # resampling
    # ------------------------------------------------------------------
    def resample(self, f: np.ndarray, N_new: int) -> np.ndarray:
        """Trigonometric up/down-sampling of a periodic grid function; acts on
        the last two axes, so (2, N, N) vector fields resample in one call.

        Each bin keeps its signed frequency: the new spectrum is the
        Hermitian part of the old one placed by signed frequency, zero-padded
        or truncated.  That splits the unpaired -N/2 bin of an even N evenly
        between +-N/2, and gives the Nyquist bin of an even N_new the mean of
        the +-N_new/2 bins.
        """
        if N_new == self.N:
            return f.copy()
        N, C = self.N, min(self.N, N_new) // 2 + 1   # the columns the band reaches
        fh = self._spectrum(f) * (N_new / N) ** 2
        k, mirror = _bin_labels(N_new)
        lo, hi = -(N // 2), (N - 1) // 2         # the signed band of the N grid
        half = np.zeros((*f.shape[:-2], N_new, C), complex)
        # the Hermitian part (Y[k] + conj(Y[-k])) / 2 of the placed spectrum Y:
        # Y[k] is old bin k if k is in the band, and conj(Y[-k]) is, f being
        # real, old bin m = mirror(k) if -m is; a negative column label reads
        # the conjugate of the bin at minus both labels
        for rows, cols, band in ((k, k[:C], (lo, hi)), (mirror, mirror[:C], (-hi, -lo))):
            r = np.flatnonzero((band[0] <= rows) & (rows <= band[1]))
            c = np.flatnonzero((band[0] <= cols) & (cols <= band[1]))
            a, b = rows[r], cols[c]
            block = fh[..., a % N, :][..., np.abs(b)]
            block[..., b < 0] = np.conj(fh[..., -a % N, :][..., -b[b < 0]])
            half[..., r[:, None], c] += 0.5 * block
        # irfft2, the ifft along y1 on the band's columns alone (irfft pads)
        return np.fft.irfft(np.fft.ifft(half, axis=-2), n=N_new, axis=-1)

    def shift(self, f: np.ndarray, dy: tuple[float, float]) -> np.ndarray:
        """Evaluate periodic f at y + dy via Fourier translation; acts on the
        last two axes.  The Nyquist bin of an even N, one bin for +-N/2,
        takes the mean of the two phases."""
        k, mirror = _bin_labels(self.N)
        C = self.N // 2 + 1

        def phase(labels):
            return (np.exp(2j * np.pi * dy[0] * labels)[:, None]
                    * np.exp(2j * np.pi * dy[1] * labels[:C]))

        return self._field(self._spectrum(f) * (0.5 * (phase(k) + phase(mirror))))
