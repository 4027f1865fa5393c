import gmmfad


def test_every_exported_name_resolves():
    assert len(set(gmmfad.__all__)) == len(gmmfad.__all__)
    for name in gmmfad.__all__:
        assert getattr(gmmfad, name) is not None, name
