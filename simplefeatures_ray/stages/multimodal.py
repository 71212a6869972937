"""Multimodal (image/audio/video) column stages.

Media payloads are opaque `binary` columns with typed metadata columns;
decode / resize / feature-extract / frame-sample run as actor-pool (or
worker-cached task) map_batches stages.

Decode is REAL where a stdlib-only codec exists: PNG/PPM images via the
engine's imagecodec.py (zlib) and WAV/PCM audio via audiocodec.py.
Formats that need external libraries (JPEG, MP3, video frames) stay
behind a deterministic hash-seeded fake (`fake=True`) so the Ray-side
plumbing — schema, batch sizing, actor signature, output layout — is
fully real and tested end-to-end either way.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa


def _payload_seed(data: bytes) -> int:
    return int.from_bytes(hashlib.sha256(data or b"").digest()[:8], "little")


class DecodeImage:
    """binary payload -> (pixels fixed_size_list<uint8>, height, width).

    Real decode path: the engine's own pure-python PNG / PPM codec
    (simplefeatures_ray.imagecodec — zlib is stdlib, no image libraries
    needed), followed by a deterministic nearest-neighbour resize to
    target_size. JPEG and other formats would plug into `_decode` the
    same way; `fake=True` keeps the hash-seeded synthetic decoder for
    payloads that are not real images (e.g. the synthetic media table).
    """

    def __init__(self, target_size=(32, 32), fake: bool = False,
                 bytes_col: str = "image_bytes"):
        self.h, self.w = target_size
        self.fake = fake
        self.bytes_col = bytes_col

    def _decode(self, data: bytes) -> np.ndarray:
        from ..imagecodec import PNG_SIG, png_decode, ppm_decode, resize_nearest

        data = data or b""
        if data[:8] == PNG_SIG:
            img = png_decode(data)
        elif data[:2] == b"\xFF\xD8":
            from ..jpegcodec import jpeg_decode

            img = jpeg_decode(data)
        elif data[:2] == b"P6":
            img = ppm_decode(data)
        elif self.fake:
            rng = np.random.default_rng(_payload_seed(data))
            return rng.integers(0, 256, size=(self.h, self.w, 3), dtype=np.uint8)
        else:
            raise NotImplementedError(
                "unrecognised image payload (PNG and PPM decode natively; "
                "other codecs are not available in this environment — "
                "construct DecodeImage(fake=True) for the deterministic stub)"
            )
        if img.shape[2] == 1:
            img = np.repeat(img, 3, axis=2)
        elif img.shape[2] == 4:
            img = img[:, :, :3]
        return resize_nearest(img, self.h, self.w)

    def __call__(self, batch: pa.Table) -> pa.Table:
        imgs = [self._decode(b) for b in batch[self.bytes_col].to_pylist()]
        flat = np.concatenate([im.reshape(-1) for im in imgs]) if imgs else np.zeros(0, np.uint8)
        pixels = pa.FixedSizeListArray.from_arrays(
            pa.array(flat, pa.uint8()), self.h * self.w * 3
        )
        out = batch.drop_columns([self.bytes_col])  # wide payload leaves the stream
        out = out.append_column("pixels", pixels)
        out = out.append_column("height", pa.array([self.h] * len(batch), pa.int32()))
        out = out.append_column("width", pa.array([self.w] * len(batch), pa.int32()))
        return out


class ImageFeatures:
    """pixels -> small feature vector (channel means/stds + gradient
    energy). Pure numpy; stands in for model inference in the pipeline
    shape (batched, actor-pool, fixed-length float32 output)."""

    def __init__(self, pixel_col: str = "pixels"):
        self.pixel_col = pixel_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        arr = batch[self.pixel_col].combine_chunks()
        n = len(arr)
        h = int(batch["height"][0].as_py()) if n else 0
        w = int(batch["width"][0].as_py()) if n else 0
        flat = np.asarray(arr.values, dtype=np.uint8).reshape(n, h, w, 3).astype(np.float32)
        means = flat.mean(axis=(1, 2))
        stds = flat.std(axis=(1, 2))
        gx = np.abs(np.diff(flat.mean(axis=3), axis=2)).mean(axis=(1, 2), keepdims=False)
        feats = np.concatenate([means, stds, gx[:, None]], axis=1)
        out = pa.FixedSizeListArray.from_arrays(
            pa.array(feats.reshape(-1), pa.float32()), feats.shape[1]
        )
        return batch.append_column("img_features", out)


class SampleFrames:
    """video binary -> k sampled frames: byte offsets + decoded-content
    hashes.

    REAL path (payload starts with a JPEG SOI): the payload is treated
    as an MJPEG stream (concatenated JPEGs — the Motion-JPEG / .mjpeg
    convention). Frames are indexed by a cheap marker-segment walk (no
    entropy decode), k frames are sampled evenly across the clip,
    and ONLY the sampled frames are entropy-decoded; frame_hashes are
    blake2b digests of the decoded pixel buffers, frame_offsets are the
    true byte offsets. Other payloads keep the declared deterministic
    fake (offsets/layout real, hashes seeded)."""

    def __init__(self, k: int = 4, bytes_col: str = "video_bytes"):
        self.k = k
        self.bytes_col = bytes_col

    def _sample_mjpeg(self, data: bytes):
        import hashlib

        from ..jpegcodec import jpeg_decode, mjpeg_frame_index

        idx = mjpeg_frame_index(data)
        if not idx:
            raise ValueError("no frames in MJPEG stream")
        k = min(self.k, len(idx))
        # even coverage across the clip, deterministic
        pick = np.unique((np.arange(k) * (len(idx) - 1) // max(k - 1, 1))
                         .astype(np.int64)) if k > 1 else np.array([0])
        offs, hashes = [], []
        for fi in pick:
            off, ln = idx[int(fi)]
            pix = jpeg_decode(data[off:off + ln])
            digest = hashlib.blake2b(pix.tobytes(), digest_size=8).digest()
            offs.append(int(off))
            hashes.append(int.from_bytes(digest, "little") % (1 << 63))
        return offs, hashes

    def __call__(self, batch: pa.Table) -> pa.Table:
        offs = []
        hashes = []
        for b in batch[self.bytes_col].to_pylist():
            b = b or b""
            if b[:2] == b"\xFF\xD8":
                o, h = self._sample_mjpeg(b)
                offs.append(np.asarray(o, dtype=np.int64))
                hashes.append(np.asarray(h, dtype=np.int64))
                continue
            seed = _payload_seed(b)
            rng = np.random.default_rng(seed)
            n_frames = 32 + seed % 1000
            pick = np.sort(rng.choice(n_frames, size=min(self.k, n_frames), replace=False))
            offs.append(pick.astype(np.int64))
            hashes.append(np.asarray(
                [(seed ^ (int(p) * 0x9E3779B97F4A7C15)) % (1 << 63) for p in pick],
                dtype=np.int64))
        out = batch.append_column(
            "frame_offsets", pa.array([o.tolist() for o in offs], pa.list_(pa.int64()))
        )
        return out.append_column(
            "frame_hashes", pa.array([h.tolist() for h in hashes], pa.list_(pa.int64()))
        )


_DC_CODECS = ("png", "jpeg90", "jpeg92opt", "jpeg90sub420")


def dc_media_table(n: int, size: int = 24) -> pa.Table:
    """Deterministic media table whose images are per-8x8-block CONSTANT
    values (block k of id i = (k*37 + i*101) % 256) so the lossy JPEG
    round-trip is exactly predictable in closed form: a constant block
    has only a DC coefficient, and quantize/dequantize of the DC is pure
    arithmetic (round-half-even((v-128)*8/q00)*q00/8 + 128). That makes
    every pixel of the decode — across PNG, baseline JPEG, per-image
    optimized Huffman tables, and 4:2:0 subsampling with restart
    markers — recomputable by an independent SQL oracle with no image
    code at all. Ref parity: exercises the same decode surface as
    `geom`'s codec round-trip tests (reference style: encode→decode→
    compare, e.g. /root/reference/geom/wkb_test.go) but for the media
    plumbing."""
    from ..imagecodec import png_encode
    from ..jpegcodec import jpeg_encode

    nb = size // 8
    ids = np.arange(n, dtype=np.int64)
    payloads = []
    codecs = []
    for i in ids:
        bv = ((np.arange(nb * nb) * 37 + int(i) * 101) % 256).astype(
            np.uint8).reshape(nb, nb)
        img = np.repeat(np.repeat(bv, 8, axis=0), 8, axis=1)[:, :, None]
        v = int(i) % 4
        codecs.append(_DC_CODECS[v])
        if v == 0:
            payloads.append(png_encode(img))
        elif v == 1:
            payloads.append(jpeg_encode(img, quality=90))
        elif v == 2:
            payloads.append(jpeg_encode(img, quality=92, optimize_huffman=True))
        else:
            payloads.append(jpeg_encode(np.repeat(img, 3, axis=2), quality=90,
                                        subsample=True, restart_interval=2))
    return pa.table({
        "media_id": pa.array(ids),
        "codec": pa.array(codecs, pa.string()),
        "image_bytes": pa.array(payloads, pa.binary()),
    })


def real_media_table(n: int, size: int = 24) -> pa.Table:
    """Deterministic media table whose image payloads are REAL encoded
    bytes from the engine's own codecs — a round-robin of PNG, baseline
    JPEG 4:4:4, and JPEG 4:2:0 with restart markers, so the decode stage
    exercises every native path. Pixel content is a seeded
    gradient+noise pattern per id."""
    from ..imagecodec import png_encode
    from ..jpegcodec import jpeg_encode

    ids = np.arange(n, dtype=np.int64)
    imgs = []
    vids = []
    for i in ids:
        rng = np.random.default_rng(1000 + int(i))
        yy, xx = np.mgrid[0:size, 0:size]
        base = ((yy * 5 + xx * 3 + int(i) * 17) % 256).astype(np.uint8)
        noise = rng.integers(0, 64, size=(size, size, 3), dtype=np.uint8)
        img = (base[:, :, None].astype(np.int32) + noise).astype(np.uint8)
        if i % 3 == 0:
            imgs.append(png_encode(img))
        elif i % 3 == 1:
            # optimized per-image Huffman: exercises the decoder's
            # generic variable-length DHT path
            imgs.append(jpeg_encode(img, quality=92, optimize_huffman=True))
        else:
            imgs.append(jpeg_encode(img, quality=90, subsample=True,
                                    restart_interval=2))
        # REAL MJPEG clip: 6 frames of a drifting gradient (frame count
        # and drift seeded per id), encoded by the engine's own codec
        from ..jpegcodec import mjpeg_encode

        n_frames = 4 + int(i) % 4
        frames = [np.roll(img, shift=3 * f, axis=1) for f in range(n_frames)]
        vids.append(mjpeg_encode(frames, quality=80))
    return pa.table(
        {
            "media_id": pa.array(ids),
            "image_bytes": pa.array(imgs, pa.binary()),
            "video_bytes": pa.array(vids, pa.binary()),
        }
    )


def fake_media_table(n: int, payload_bytes: int = 256) -> pa.Table:
    """Deterministic media table for tests/benches: (media_id, image_bytes,
    video_bytes)."""
    ids = np.arange(n, dtype=np.int64)
    imgs = []
    vids = []
    for i in ids:
        h = hashlib.sha256(f"img{i}".encode()).digest()
        imgs.append((h * (payload_bytes // len(h) + 1))[:payload_bytes])
        h2 = hashlib.sha256(f"vid{i}".encode()).digest()
        vids.append((h2 * (payload_bytes // len(h2) + 1))[:payload_bytes])
    return pa.table(
        {
            "media_id": pa.array(ids),
            "image_bytes": pa.array(imgs, pa.binary()),
            "video_bytes": pa.array(vids, pa.binary()),
        }
    )


class DecodeAudio:
    """binary WAV payload -> fixed-length audio feature vector
    (audiocodec.py: real RIFF/PCM decode, numpy FFT band energies).
    Actor-pool / worker-cached map_batches stage; payload bytes never
    leave the worker."""

    def __init__(self, bytes_col: str = "audio_bytes", n_bands: int = 8):
        self.bytes_col = bytes_col
        self.n_bands = n_bands

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..audiocodec import audio_features, wav_decode

        feats = []
        rates = np.zeros(len(batch), dtype=np.int32)
        secs = np.zeros(len(batch), dtype=np.float64)
        for i, b in enumerate(batch[self.bytes_col].to_pylist()):
            samples, rate = wav_decode(b or b"")
            rates[i] = rate
            secs[i] = len(samples) / rate if rate else 0.0
            feats.append(audio_features(samples, self.n_bands))
        flat = (np.concatenate(feats) if feats
                else np.zeros(0, dtype=np.float32))
        out = batch.drop_columns([self.bytes_col])
        out = out.append_column("audio_features", pa.FixedSizeListArray.from_arrays(
            pa.array(flat, pa.float32()), 3 + self.n_bands))
        out = out.append_column("sample_rate", pa.array(rates, pa.int32()))
        return out.append_column("duration_s", pa.array(np.round(secs, 6)))


def real_audio_table(n: int, rate: int = 8000, seconds: float = 0.25) -> pa.Table:
    """Deterministic audio table with REAL WAV payloads (engine codec):
    (media_id, audio_bytes). Each clip is a seeded two-tone + noise."""
    from ..audiocodec import wav_encode

    ids = np.arange(n, dtype=np.int64)
    clips = []
    t = np.arange(int(rate * seconds)) / rate
    for i in ids:
        rng = np.random.default_rng(2000 + int(i))
        f1, f2 = 100 + (int(i) * 37) % 900, 1000 + (int(i) * 91) % 2000
        sig = (0.5 * np.sin(2 * np.pi * f1 * t)
               + 0.3 * np.sin(2 * np.pi * f2 * t)
               + 0.05 * rng.standard_normal(len(t)))
        clips.append(wav_encode((np.clip(sig, -1, 1) * 32767).astype(np.int16),
                                rate))
    return pa.table({
        "media_id": pa.array(ids),
        "audio_bytes": pa.array(clips, pa.binary()),
    })
