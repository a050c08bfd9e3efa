"""``mseq_bytes`` builds each MSEQ1 file once; ``load_sequence`` names the file
in every error its ``PoseSequence`` raises."""
import re
import struct

import numpy as np
import pytest

from motionrefine.data import MAGIC, load_sequence, mseq_bytes, mseq_size
from motionrefine.errors import ConfigurationError, DataError
from motionrefine.kinematics import PoseSequence


def test_frame_rate_zero_file_names_its_path(tmp_path):
    path = tmp_path / "still.mseq"
    blob = mseq_bytes(PoseSequence(np.zeros((2, 1, 3))), "skel")
    rate_at = len(MAGIC) + 8  # after the joint and frame counts
    path.write_bytes(blob[:rate_at] + struct.pack("<I", 0) + blob[rate_at + 4:])
    with pytest.raises(DataError, match=re.escape(f"{path}: frame rate")):
        load_sequence(path)


@pytest.mark.parametrize("coords, frame_rate, message", [
    (np.full((1, 1, 3), 1e39), 25.0, "beyond the float32 range"),
    (np.zeros((1, 1, 3)), 25.0000007, "millihertz"),
], ids=["overflow", "frame_rate"])
def test_every_rejection_raises_the_given_error(coords, frame_rate, message):
    with pytest.raises(ConfigurationError, match=message):
        mseq_bytes(PoseSequence(coords, frame_rate), "skel", ConfigurationError)


@pytest.mark.parametrize("joints, frames, name",
                         [(1, 1, ""), (5, 40, "chains1x4"), (3, 7, "sk\u00e9l")])
def test_size_is_the_built_file_length(joints, frames, name):
    blob = mseq_bytes(PoseSequence(np.zeros((frames, joints, 3))), name)
    assert mseq_size(joints, frames, name) == len(blob)
