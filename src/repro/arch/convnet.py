"""Functional convolutional inference on the photonic PEs.

The big CNNs go through the analytical cost model; this module runs *small*
convolutional networks through the functional simulator, end to end: every
convolution is lowered to its weight-stationary GEMM (im2col), the GEMM
tiles onto PE banks, output positions stream as analog symbols, and the GST
activation fires photonically between layers — the same execution the paper
describes, with real numbers and quantization/noise.

Spec layers (small-scale counterparts of :mod:`repro.nn.layers`):

- ``("conv", out_channels, kernel, stride, padding)``
- ``("pool", kernel)``  (max pooling, electronic)
- ``("flatten",)``
- ``("dense", out_features)``

Activations (GST, slope 0.34) follow every conv/dense layer except the
last dense layer (logits).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.config import TridentConfig
from repro.arch.pe import ProcessingElement, stream_tiles
from repro.arch.weight_bank import BankStats, WeightBank
from repro.devices.noise import NoiseModel
from repro.devices.photodetector import BalancedPhotodetector
from repro.errors import MappingError, ShapeError
from repro.nn.reference import gst_activation, im2col


@dataclass
class _ConvLayer:
    out_channels: int
    kernel: int
    stride: int
    padding: int
    weights: np.ndarray | None = None  # (K, R, R, C)


@dataclass
class _DenseLayer:
    out_features: int
    weights: np.ndarray | None = None  # (out, in)


class FunctionalConvNet:
    """A small CNN executed functionally on photonic PEs."""

    def __init__(
        self,
        input_shape: tuple[int, int, int],
        spec: list[tuple],
        config: TridentConfig | None = None,
        noise: NoiseModel | None = None,
    ) -> None:
        self.config = config or TridentConfig()
        self.noise = noise or NoiseModel.ideal()
        self.input_shape = input_shape
        self.layers: list[tuple[str, object]] = []
        self.pes: list[ProcessingElement] = []
        self._pe_of_layer: dict[int, list[tuple[int, int, int, int, int]]] = {}
        self.symbols = 0
        self._build(spec)

    # ------------------------------------------------------------------
    def _build(self, spec: list[tuple]) -> None:
        if not spec:
            raise MappingError("empty network spec")
        shape = self.input_shape
        flattened = False
        for entry in spec:
            kind = entry[0]
            if kind == "conv":
                if flattened:
                    raise MappingError("conv after flatten is not supported")
                _, out_ch, kernel, stride, padding = entry
                h, w, c = shape
                oh = (h + 2 * padding - kernel) // stride + 1
                ow = (w + 2 * padding - kernel) // stride + 1
                if oh < 1 or ow < 1:
                    raise MappingError("conv output collapsed")
                self.layers.append(("conv", _ConvLayer(out_ch, kernel, stride, padding)))
                shape = (oh, ow, out_ch)
            elif kind == "pool":
                _, kernel = entry
                h, w, c = shape
                if h % kernel or w % kernel:
                    raise MappingError(
                        f"pool kernel {kernel} must divide feature map {h}x{w}"
                    )
                self.layers.append(("pool", kernel))
                shape = (h // kernel, w // kernel, c)
            elif kind == "flatten":
                self.layers.append(("flatten", None))
                flattened = True
                shape = (1, 1, shape[0] * shape[1] * shape[2])
            elif kind == "dense":
                if not flattened:
                    raise MappingError("flatten before dense layers")
                _, out = entry
                self.layers.append(("dense", _DenseLayer(out)))
                shape = (1, 1, out)
            else:
                raise MappingError(f"unknown layer kind {kind!r}")
        self.output_shape = shape

    # ------------------------------------------------------------------
    def _new_pe(self) -> int:
        pe = ProcessingElement(
            bank=WeightBank(
                rows=self.config.bank_rows,
                cols=self.config.bank_cols,
                tuning=self.config.tuning,
                noise=self.noise,
            ),
            bpd=BalancedPhotodetector(noise=self.noise),
        )
        self.pes.append(pe)
        return len(self.pes) - 1

    def _map_gemm(self, layer_index: int, m: int, k: int) -> None:
        tiles = []
        J, N = self.config.bank_rows, self.config.bank_cols
        for r0 in range(0, m, J):
            for c0 in range(0, k, N):
                tiles.append(
                    (r0, min(r0 + J, m), c0, min(c0 + N, k), self._new_pe())
                )
        self._pe_of_layer[layer_index] = tiles
        if len(self.pes) > self.config.n_pes:
            raise MappingError(
                f"network needs {len(self.pes)} PE tiles; configuration has "
                f"{self.config.n_pes}"
            )

    def set_weights(self, weights: list[np.ndarray]) -> None:
        """Program conv filters ((K, R, R, C)) and dense matrices, in order."""
        weight_layers = [
            (i, layer) for i, (kind, layer) in enumerate(self.layers)
            if kind in ("conv", "dense")
        ]
        if len(weights) != len(weight_layers):
            raise MappingError(
                f"got {len(weights)} weight tensors for {len(weight_layers)} layers"
            )
        self.pes = []
        self._pe_of_layer = {}
        shape = self.input_shape
        for (index, layer), w in zip(weight_layers, weights):
            w = np.asarray(w, dtype=np.float64)
            if isinstance(layer, _ConvLayer):
                if w.ndim != 4 or w.shape[0] != layer.out_channels:
                    raise ShapeError(
                        f"conv layer expects (K={layer.out_channels}, R, R, C), got {w.shape}"
                    )
                layer.weights = w.copy()
            else:
                if w.ndim != 2 or w.shape[0] != layer.out_features:
                    raise ShapeError(
                        f"dense layer expects ({layer.out_features}, in), got {w.shape}"
                    )
                layer.weights = w.copy()
        # Map and program after all weights validated.
        for index, layer in weight_layers:
            if isinstance(layer, _ConvLayer):
                m = layer.out_channels
                k = int(np.prod(layer.weights.shape[1:]))
                matrix = layer.weights.reshape(m, k)
            else:
                m, k = layer.weights.shape
                matrix = layer.weights
            self._map_gemm(index, m, k)
            peak = float(np.max(np.abs(matrix))) if matrix.size else 0.0
            scale = peak if peak > 1.0 else 1.0
            setattr(layer, "weight_scale", scale)
            for r0, r1, c0, c1, pe_index in self._pe_of_layer[index]:
                self.pes[pe_index].program_weights(matrix[r0:r1, c0:c1] / scale)

    # ------------------------------------------------------------------
    def _gemm_forward(self, layer_index: int, m: int, cols: np.ndarray, scale_w: float) -> np.ndarray:
        """Stream (positions, k) im2col rows through the layer's PE tiles."""
        positions = cols.shape[0]
        enc_scale = float(np.max(np.abs(cols))) if cols.size else 0.0
        enc_scale = enc_scale if enc_scale > 1.0 else 1.0
        normalized = np.clip(cols / enc_scale, -1, 1).T  # (k, positions)
        tiles = self._pe_of_layer[layer_index]
        out = stream_tiles(self.pes, tiles, normalized, m)
        self.symbols += positions * len(tiles)
        return out.T * enc_scale * scale_w

    def forward(self, image: np.ndarray) -> np.ndarray:
        """Run one (H, W, C) image; returns the final logits."""
        x = np.asarray(image, dtype=np.float64)
        if x.shape != self.input_shape:
            raise ShapeError(f"expected image {self.input_shape}, got {x.shape}")
        value: np.ndarray = x
        n_weight_layers = sum(
            1 for kind, _ in self.layers if kind in ("conv", "dense")
        )
        seen_weights = 0
        for index, (kind, layer) in enumerate(self.layers):
            if kind == "conv":
                if layer.weights is None:
                    raise MappingError("program weights before forward")
                seen_weights += 1
                cols = im2col(value, layer.kernel, layer.stride, layer.padding)
                h = (value.shape[0] + 2 * layer.padding - layer.kernel) // layer.stride + 1
                out = self._gemm_forward(
                    index, layer.out_channels, cols, layer.weight_scale
                )
                value = out.reshape(h, -1, layer.out_channels)
                value = gst_activation(value)
            elif kind == "pool":
                k = layer
                h, w, c = value.shape
                value = value.reshape(h // k, k, w // k, k, c).max(axis=(1, 3))
            elif kind == "flatten":
                value = value.reshape(1, 1, -1)
            elif kind == "dense":
                if layer.weights is None:
                    raise MappingError("program weights before forward")
                seen_weights += 1
                flat = value.reshape(1, -1)
                out = self._gemm_forward(
                    index, layer.out_features, flat, layer.weight_scale
                )
                value = out.reshape(1, 1, -1)
                if seen_weights < n_weight_layers:
                    value = gst_activation(value)
        return value.ravel()

    def forward_batch(self, images: np.ndarray) -> np.ndarray:
        """Stack of images -> stack of logits."""
        images = np.asarray(images, dtype=np.float64)
        if images.ndim != 4:
            raise ShapeError(f"expected (B, H, W, C), got {images.shape}")
        return np.stack([self.forward(img) for img in images])

    # ------------------------------------------------------------------
    def bank_stats(self) -> BankStats:
        """Merged programming/usage counters across all PEs."""
        merged = BankStats()
        for pe in self.pes:
            merged = merged.merge(pe.bank.stats)
        return merged
