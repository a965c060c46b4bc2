"""The line codec's transient memory on a multi-MB transcript.

Transcript.to_text writes every line into one buffer and decodes it once,
and Transcript.parse replaces each line with its value as it goes, so
neither holds a second whole-transcript intermediate. Measured by
tracemalloc, to_text's peak above the text it returns stays within 1.6
times the text, and parse's peak above the transcript it returns within
0.3 times the text.
"""

import tracemalloc

from trustsim.harness import Transcript
from trustsim.scenarios import run_scenario


def _transient(fn, *args):
    """(fn(*args), the peak of traced memory during the call above what is
    still traced after it)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - current


def test_to_text_and_parse_hold_no_second_copy_of_a_long_transcript():
    transcript, _ = run_scenario("one-time-aik-auth", 5, variants={"auth_count": 300})
    text, written = _transient(transcript.to_text)
    assert len(text) > 1_000_000
    parsed, read = _transient(Transcript.parse, text)
    assert parsed == transcript
    assert written <= 1.6 * len(text), written / len(text)
    assert read <= 0.3 * len(text), read / len(text)
