import struct

import numpy as np
import pytest

from capypipe.manifest import (
    FilterVerdict,
    Language,
    MediaKind,
    MediaRef,
    SampleRecord,
    Scenario,
)


def audio_ref(duration=1.0, rate=16000, path="a.wav"):
    return MediaRef(kind=MediaKind.AUDIO, path=path, duration=duration, sample_rate=rate)


def make_record(
    id="r1",
    scenario=Scenario.ASR,
    language=Language.ENG,
    text="hello world",
    media=None,
    **kwargs,
):
    if media is None and scenario is Scenario.ASR:
        media = (audio_ref(),)
    return SampleRecord(
        id=id,
        scenario=scenario,
        language=language,
        text=text,
        media=tuple(media or ()),
        **kwargs,
    )


def write_pcm16_wav(path, rate, n_samples=160, channels=1, bits=16, samples=None):
    """A PCM WAV, packed by hand, since `wave` refuses to write some header
    values (a rate of 0): `samples`, floats in [-1, 1] rounded to 16-bit PCM
    and interleaved when `channels` > 1, or else `n_samples` frames of
    silence, 16-bit unless `bits` says otherwise."""
    block = channels * (bits // 8)
    if samples is None:
        data = bytes(block * n_samples)
    else:
        pcm = np.clip(np.round(np.asarray(samples) * 32768.0), -32768, 32767)
        data = pcm.astype("<i2").tobytes()
    # the byte rate is informational; wrapped so that any rate packs
    fmt = struct.pack("<HHIIHH", 1, channels, rate, (block * rate) % 2**32, block, bits)
    path.write_bytes(
        b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
        + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + b"data" + struct.pack("<I", len(data)) + data
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# one PASS/FAIL line per release criterion, printed after the test summary
ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
