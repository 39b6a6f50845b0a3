import math

import numpy as np
import pytest

from capypipe.audio import (
    AudioFormatError,
    MelSpectrogram,
    decode_wav,
    hz_to_mel,
    log_mel,
    mel_filter_centers,
    mel_filterbank,
    mel_to_hz,
    profile,
    resample_16k,
)
from capypipe.tokens import audio_budget

from conftest import write_pcm16_wav


def sine(freq, duration, rate, amp=0.5):
    t = np.arange(int(duration * rate)) / rate
    return amp * np.sin(2 * np.pi * freq * t)


class TestDecodeWav:
    def test_silence(self, tmp_path):
        p = tmp_path / "s.wav"
        write_pcm16_wav(p, 16000, n_samples=16000)
        samples, rate = decode_wav(p)
        assert rate == 16000
        assert len(samples) == 16000
        assert np.all(samples == 0.0)

    def test_full_scale_square_wave(self, tmp_path):
        p = tmp_path / "sq.wav"
        write_pcm16_wav(p, 16000, samples=np.tile([32767 / 32768, -1.0], 100))
        samples, _ = decode_wav(p)
        assert set(np.unique(samples)) == {-1.0, 32767 / 32768}

    def test_stereo_downmix_cancels(self, tmp_path):
        x = (np.sin(np.linspace(0, 10, 500)) * 10000).astype("<i2")
        interleaved = np.empty(1000, dtype="<i2")
        interleaved[0::2] = x
        interleaved[1::2] = -x
        p = tmp_path / "st.wav"
        write_pcm16_wav(p, 16000, channels=2, samples=interleaved / 32768)
        samples, _ = decode_wav(p)
        assert np.all(samples == 0.0)

    @pytest.mark.parametrize("channels", [1, 2])
    def test_matches_float_downmix(self, tmp_path, rng, channels):
        pcm = rng.integers(-32768, 32768, size=(1000, channels)).astype("<i2")
        pcm[:2] = [[-32768] * channels, [32767] * channels]
        pcm[2] = [-32768, 32767][:channels]
        p = tmp_path / "x.wav"
        write_pcm16_wav(p, 44100, channels=channels, samples=pcm.ravel() / 32768)
        samples, _ = decode_wav(p)
        ref = pcm.astype(np.float64).mean(axis=1) if channels == 2 else pcm[:, 0].astype(np.float64)
        assert samples.dtype == np.float64
        assert samples.tobytes() == (ref / 32768.0).tobytes()

    def test_stereo_holds_no_interleaved_float_copy(self, tmp_path):
        import tracemalloc

        n = 200_000
        p = tmp_path / "st.wav"
        write_pcm16_wav(p, 44100, n_samples=n, channels=2)
        tracemalloc.start()
        try:
            decode_wav(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the raw bytes and the mono float64 output; a float64 copy of both
        # channels alone would be twice the output
        assert peak < 4 * n + 2 * 8 * n, peak

    def test_rejects_wrong_bit_depth(self, tmp_path):
        p = tmp_path / "w8.wav"
        write_pcm16_wav(p, 16000, n_samples=100, bits=8)
        with pytest.raises(AudioFormatError, match="16-bit"):
            decode_wav(p)

    def test_rejects_garbage(self, tmp_path):
        p = tmp_path / "g.wav"
        p.write_bytes(b"not a wav at all")
        with pytest.raises(AudioFormatError):
            decode_wav(p)

    # empty, inside the RIFF id, inside the fmt chunk
    @pytest.mark.parametrize("size", [0, 2, 20])
    def test_rejects_truncated_header(self, tmp_path, size):
        p = tmp_path / "t.wav"
        write_pcm16_wav(p, 16000)
        p.write_bytes(p.read_bytes()[:size])
        with pytest.raises(AudioFormatError, match="header is cut short"):
            decode_wav(p)


class TestResample:
    def test_identity_at_16k(self):
        x = sine(440, 0.5, 16000)
        out = resample_16k(x, 16000)
        assert np.array_equal(out, x)

    def test_440hz_peak_preserved(self):
        x = sine(440, 1.0, 48000)
        y = resample_16k(x, 48000)
        assert len(y) == 16000
        spec = np.abs(np.fft.rfft(y))
        peak_hz = np.argmax(spec) * 16000 / len(y)
        assert abs(peak_hz - 440.0) <= 2.0

    def test_dc_preserved(self):
        y = resample_16k(np.full(44100, 0.5), 44100)
        assert np.all(np.abs(y - 0.5) < 1e-3)

    def test_rms_conserved_band_limited(self):
        x = sine(2000, 1.0, 48000)
        y = resample_16k(x, 48000)
        rms_in = np.sqrt((x**2).mean())
        rms_out = np.sqrt((y**2).mean())
        assert abs(rms_out - rms_in) / rms_in < 0.01

    def test_upsample_length(self):
        y = resample_16k(np.zeros(8000), 8000)
        assert len(y) == 16000

    def test_rate_out_of_range(self):
        with pytest.raises(ValueError):
            resample_16k(np.zeros(100), 4000)
        with pytest.raises(ValueError):
            resample_16k(np.zeros(100), 200000)


class TestLogMel:
    def test_frame_count_one_second(self):
        mel = log_mel(np.zeros(16000))
        assert mel.n_frames == 100
        assert mel.n_mels == 128

    def test_silence_uniform_floor(self):
        mel = log_mel(np.zeros(16000))
        assert len(np.unique(mel.values)) == 1

    def test_sine_hits_nearest_filter(self):
        centers = mel_filter_centers()
        for freq in (500.0, 1000.0, 3000.0):
            mel = log_mel(sine(freq, 1.0, 16000))
            hottest = int(np.argmax(mel.values.mean(axis=1)))
            nearest = int(np.argmin(np.abs(centers - freq)))
            assert abs(hottest - nearest) <= 1

    def test_polarity_invariant(self):
        x = sine(700, 0.7, 16000)
        np.testing.assert_array_equal(log_mel(x).values, log_mel(-x).values)

    def test_concat_frame_slack(self):
        a = sine(300, 0.73, 16000)
        b = sine(900, 1.21, 16000)
        na = log_mel(a).n_frames
        nb = log_mel(b).n_frames
        nc = log_mel(np.concatenate([a, b])).n_frames
        assert na + nb - 2 <= nc <= na + nb + 2

    def test_filterbank_equals_the_per_filter_loop(self):
        # reference: one triangle per filter, the same arithmetic per element
        fft_freqs = np.fft.rfftfreq(400, d=1.0 / 16000)
        edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(8000.0), 130))
        want = np.zeros((128, len(fft_freqs)))
        for i in range(128):
            lo, ctr, hi = edges[i], edges[i + 1], edges[i + 2]
            up = (fft_freqs - lo) / (ctr - lo)
            down = (hi - fft_freqs) / (hi - ctr)
            want[i] = np.maximum(0.0, np.minimum(up, down)) * (2.0 / (hi - lo))
        assert np.array_equal(mel_filterbank(), want)

    @pytest.mark.parametrize("n", [1, 159, 160, 161, 200, 201, 399, 400, 401])
    def test_short_signal_frames_fit_the_padded_signal(self, n):
        # n <= 200 takes the constant pad, longer signals the reflect pad
        mel = log_mel(sine(440, 1.0, 16000)[:n])
        assert mel.n_frames == max(1, math.ceil(n / 160))
        assert mel.values.shape == (128, mel.n_frames)
        assert np.all(np.isfinite(mel.values))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            log_mel(np.zeros(0))

    def test_values_bounded_below(self):
        mel = log_mel(sine(1000, 0.5, 16000))
        assert np.all(np.isfinite(mel.values))
        assert mel.values.min() >= mel.values.max() - 8.0 / 4.0 - 1e-6


class TestProfile:
    def test_one_second_16k(self, tmp_path):
        p = tmp_path / "a.wav"
        write_pcm16_wav(p, 16000, samples=sine(440, 1.0, 16000))
        prof = profile(p)
        assert prof.duration == 1.0
        assert prof.n_frames == 100
        assert prof.n_tokens == 25

    def test_tenth_second(self, tmp_path):
        p = tmp_path / "b.wav"
        write_pcm16_wav(p, 16000, n_samples=1600)
        assert profile(p).n_tokens == 2

    def test_48k_two_seconds(self, tmp_path):
        p = tmp_path / "c.wav"
        write_pcm16_wav(p, 48000, samples=sine(440, 2.0, 48000))
        prof = profile(p)
        assert abs(prof.resampled_len - 32000) <= 1
        assert prof.source_rate == 48000

    def test_tokens_match_budget(self, tmp_path):
        for i, n_samples in enumerate((800, 4000, 16000, 55555)):
            p = tmp_path / f"d{i}.wav"
            write_pcm16_wav(p, 16000, n_samples=n_samples)
            prof = profile(p)
            assert prof.n_tokens == audio_budget(prof.duration)

    def test_rejects_zero_sample_rate(self, tmp_path):
        p = tmp_path / "r0.wav"
        write_pcm16_wav(p, 0)
        with pytest.raises(ValueError, match="sample rate 0 outside supported range"):
            profile(p)
