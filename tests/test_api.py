import types

import ndspec

# The public API may shrink but must not grow past this size again.
MAX_PUBLIC_NAMES = 40


def test_public_api_is_sorted_unique_importable_and_bounded():
    names = ndspec.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(ndspec, name)]
    assert not missing
    assert len(names) <= MAX_PUBLIC_NAMES


def test_every_public_attribute_is_listed():
    # a name dropped from __all__ but still imported stays reachable
    unlisted = [
        name for name, value in vars(ndspec).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
        and name not in ndspec.__all__
    ]
    assert not unlisted
