"""Pure-python WAV (RIFF PCM) codec + audio feature kernels.

Like imagecodec.py for PNG, this gives the multimodal audio path a REAL
decode step with nothing but the stdlib: 8/16/32-bit integer PCM and
32-bit float WAV, mono or interleaved multichannel.

Scale note: decode runs inside map_batches stages
(stages/multimodal.DecodeAudio); payload bytes never leave the worker.
"""
from __future__ import annotations

import struct

import numpy as np

_FMT_PCM = 1
_FMT_FLOAT = 3

_DTYPES = {
    (_FMT_PCM, 8): np.uint8,
    (_FMT_PCM, 16): np.int16,
    (_FMT_PCM, 32): np.int32,
    (_FMT_FLOAT, 32): np.float32,
}


def wav_encode(samples: np.ndarray, rate: int = 16000) -> bytes:
    """(n,) or (n, channels) int16/float32 samples -> WAV bytes."""
    s = np.asarray(samples)
    if s.ndim == 1:
        s = s[:, None]
    n, ch = s.shape
    if s.dtype == np.float32:
        fmt, bits = _FMT_FLOAT, 32
    elif s.dtype == np.int16:
        fmt, bits = _FMT_PCM, 16
    else:
        raise ValueError("wav_encode supports int16 or float32 samples")
    block = ch * bits // 8
    data = s.astype(s.dtype).tobytes()
    hdr = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    hdr += b"fmt " + struct.pack("<IHHIIHH", 16, fmt, ch, rate,
                                 rate * block, block, bits)
    hdr += b"data" + struct.pack("<I", len(data))
    return hdr + data


def wav_decode(data: bytes):
    """WAV bytes -> (samples (n, channels) float64 in [-1, 1], rate)."""
    if data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE payload")
    pos = 12
    fmt = bits = ch = rate = None
    payload = None
    while pos + 8 <= len(data):
        tag = data[pos:pos + 4]
        (ln,) = struct.unpack("<I", data[pos + 4:pos + 8])
        body = data[pos + 8:pos + 8 + ln]
        pos += 8 + ln + (ln & 1)  # chunks are word-aligned
        if tag == b"fmt ":
            fmt, ch, rate, _br, _ba, bits = struct.unpack("<HHIIHH", body[:16])
        elif tag == b"data":
            payload = body
    if fmt is None or payload is None:
        raise ValueError("WAV missing fmt/data chunk")
    dtype = _DTYPES.get((fmt, bits))
    if dtype is None:
        raise ValueError(f"unsupported WAV format {fmt}/{bits}bit")
    arr = np.frombuffer(payload, dtype=dtype)
    n = len(arr) // ch
    arr = arr[:n * ch].reshape(n, ch).astype(np.float64)
    if dtype == np.uint8:
        arr = (arr - 128.0) / 128.0
    elif dtype == np.int16:
        arr = arr / 32768.0
    elif dtype == np.int32:
        arr = arr / 2147483648.0
    return arr, rate


def audio_features(samples: np.ndarray, n_bands: int = 8) -> np.ndarray:
    """Fixed-length float32 feature vector: RMS, zero-crossing rate,
    peak, and n_bands log-spaced spectral energies (numpy FFT)."""
    mono = samples.mean(axis=1) if samples.ndim == 2 else samples
    n = len(mono)
    if n == 0:
        return np.zeros(3 + n_bands, dtype=np.float32)
    rms = float(np.sqrt(np.mean(mono ** 2)))
    zcr = float(np.mean(np.signbit(mono[1:]) != np.signbit(mono[:-1]))) if n > 1 else 0.0
    peak = float(np.abs(mono).max())
    spec = np.abs(np.fft.rfft(mono)) ** 2
    if len(spec) < 2:  # 1-sample clip: no resolvable bands (geomspace to 0)
        return np.concatenate([[rms, zcr, peak],
                               np.zeros(n_bands)]).astype(np.float32)
    edges = np.unique(np.geomspace(1, len(spec) - 1, n_bands + 1).astype(int))
    bands = np.zeros(n_bands)
    for i in range(min(n_bands, len(edges) - 1)):
        bands[i] = spec[edges[i]:edges[i + 1] + 1].sum()
    total = bands.sum()
    if total > 0:
        bands = bands / total
    return np.concatenate([[rms, zcr, peak], bands]).astype(np.float32)
