"""The ``--flag value`` parser every ``python -m repro`` verb shares."""


def truthy(text):
    """Coercion for yes/no flags (``--salvage yes``)."""
    return text.lower() in ("yes", "true", "1", "on")


def parse_flags(args, spec):
    """Tiny ``--flag value`` parser; spec maps flag -> coercion."""
    positional, flags = [], {}
    i = 0
    while i < len(args):
        token = args[i]
        if token.startswith("--"):
            name = token[2:]
            if name not in spec:
                raise ValueError("unknown option --{0}".format(name))
            if i + 1 >= len(args):
                raise ValueError("option --{0} needs a value".format(name))
            flags[name] = spec[name](args[i + 1])
            i += 2
        else:
            positional.append(token)
            i += 1
    return positional, flags
