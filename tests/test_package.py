from collections import Counter

import iqpdamp


def test_all_names_resolve_once():
    repeated = [name for name, count in Counter(iqpdamp.__all__).items() if count > 1]
    assert repeated == []
    missing = [name for name in iqpdamp.__all__ if not hasattr(iqpdamp, name)]
    assert missing == []
