int v;

int main() {
    if (v) v = 1;
    if (v > 2) v = 2; else v = 3;
    while (v > 0) v = v - 1;
    if (v)
        v = 4;
    return v;
}
