"""The repository's performance benchmark (see ../README.md).

Everything here measures ``src/repro`` from outside: objects are built
through public constructors, timed through public methods, and — in the
traced pass — wrapped at instance level.  Nothing in ``src/`` knows this
package exists.
"""
